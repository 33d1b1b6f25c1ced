"""Finite-group representation checks over the rationals.

Covers the pieces of representation theory the rest of the package
leans on: simultaneous eigenspace decompositions for families of
commuting involutions, and the divisibility and containment laws those
decompositions satisfy.

The joint eigenspaces are found by splitting the space under one
involution at a time, and that the pieces fill the space certifies the
involutions.  The split returns them as one labelled eigenbasis: each
column is a joint eigenvector, labelled by the bitmask of the
involutions that negate it.  The divisibility law counts the labels by
their bit count, and the containment law is read off the transvection
written in that eigenbasis, so neither enumerates the 2^n subsets.

Group presentations are carried explicitly so that every matrix
representation can be relation-checked before any law is asserted
about it.
"""

from __future__ import annotations

import itertools
import math
import re

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
    an order o of each base generator g: it is read off a power relation
    g^o of the base, and a generator without one is refused.
    """
    orders = {rel[0]: len(rel) for rel in base.relations if rel and rel == rel[:1] * len(rel)}
    missing = [g for g in base.generators if g not in orders]
    if missing:
        raise ValueError(f"no power relation gives the order of {', '.join(missing)}")
    gens = base.generators + ("xi",)
    rels = list(base.relations) + [("xi", "xi")]
    for g in base.generators:
        # xi g xi g^(o-1) = [xi, g] rewritten without inverses
        rels.append(("xi", g, "xi") + (g,) * (orders[g] - 1))
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
        # a generator g with the relation g g and (g g) = 1 is its own
        # inverse, so only the others need a determinant
        involutions = {rel[0] for rel in group.relations if len(rel) == 2 and rel[0] == rel[1]}
        for name, m in self.generators.items():
            if not isinstance(m, Matrix) or m.shape != (dim, dim):
                raise ValueError(f"generator {name!r} has the wrong shape")
            if name in involutions and (m * m).is_identity():
                continue
            if m.determinant() == 0:
                raise ValueError(f"generator {name!r} is singular")

    def matrix_of(self, word) -> Matrix:
        if not word:
            return Matrix.identity(self.dim)
        acc = self.generators[word[0]]
        for name in word[1:]:
            acc = acc * self.generators[name]
        return acc

    def failed_relations(self) -> list:
        out = []
        for rel in self.group.relations:
            if not self.matrix_of(rel).is_identity():
                out.append(rel)
        return out

    @classmethod
    def from_json(cls, obj) -> "FiniteRep":
        dim = obj["dim"]
        if type(dim) is not int:  # a JSON integer; bool is a subclass of int
            raise ValueError(f"dim must be an integer, not {dim!r}")
        return cls(
            group=GroupDescriptor.from_json(obj["group"]),
            dim=dim,
            generators={k: Matrix.from_json(v) for k, v in obj["generators"].items()},
        )


def read_signed_rep(obj) -> tuple:
    """``(rep, n, sorted rho pairs)`` from the JSON form of a rep of W_n.

    The rank n is 1 + the length of the unbroken chain ``s1, s2, ...``,
    and ``e1`` is required; ``e{k}`` for k > n and ``s{k}`` for k >= n
    are refused, ``e2..en`` are ordinary generators.  Each ``rho...`` name
    must read as ``rho{i}{j}`` for one pair 1 <= i != j <= n.  The rep's
    group gains the relations of ``signed_permutation_group(n)``, each
    distinct relation once.
    """
    rep = FiniteRep.from_json(obj)
    names = rep.generators
    if "e1" not in names or "s1" not in names:
        raise ValueError("rep must supply e1 and the adjacent swaps s1, s2, ...")
    n = 2
    while f"s{n}" in names:
        n += 1
    rho_names: dict = {}  # "rho111" names two pairs once n >= 11
    for p in itertools.permutations(range(1, n + 1), 2):
        rho_names.setdefault("rho%d%d" % p, []).append(p)
    pairs = []
    for name in names:
        indexed = re.fullmatch(r"([es])([1-9][0-9]*)", name)
        if indexed and int(indexed[2]) > n - (indexed[1] == "s"):
            raise ValueError(f"{name!r} lies beyond the rank {n} of e1, s1..s{n - 1}")
        if name.startswith("rho"):
            match = rho_names.get(name, [])
            if len(match) != 1:
                raise ValueError(f"{name!r} is not rho{{i}}{{j}} for one 1 <= i != j <= {n}")
            pairs += match
    wn = signed_permutation_group(n)
    rep.group = GroupDescriptor(
        rep.group.name, tuple(dict.fromkeys(rep.group.generators + wn.generators)),
        tuple(dict.fromkeys(rep.group.relations + wn.relations)))
    return rep, n, sorted(pairs)


def involution_family(rep: FiniteRep, n: int) -> list:
    """The n commuting sign-flip involutions of a signed-permutation rep:
    e_1 is the generator ``e1`` and e_{i+1} = s_i e_i s_i along the
    adjacent transpositions ``s1..s(n-1)``.
    """
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
    """Joint eigenspaces of n commuting involutions, as one labelled
    eigenbasis.

    The columns of ``basis`` (P) are joint eigenvectors that fill the
    space.  Column c lies in the eigenspace labelled by the bitmask
    ``labels[c]``: the j-th involution acts there by -1 exactly when bit
    j-1 is set.  The columns sharing one label are a basis of that joint
    eigenspace, and labels ascend along P.  ``basis_inverse`` is P^-1,
    computed once.  So the j-th involution is P D_j P^-1, with D_j
    diagonal holding -1 at the columns whose label has bit j-1.  The
    labels are the eps-layer multiset: ``layer_dims[i]`` counts those
    with i bits set.
    """

    __slots__ = ("n", "basis", "labels", "basis_inverse")

    def __init__(self, n: int, basis: Matrix, labels: tuple):
        self.n = n
        self.basis = basis
        self.labels = labels
        self.basis_inverse = basis.inverse()

    @property
    def layer_dims(self) -> tuple:
        return tuple(sum(label.bit_count() == i for label in self.labels)
                     for i in range(self.n + 1))


def simultaneous_eigenspaces(involutions) -> EpsDecomposition:
    """Split the whole space under the inputs, one at a time, and
    certify them as commuting involutions by the split itself.

    Each input m splits every piece B found so far into its parts
    inside the +1 and the -1 eigenspace of m, the kernels of
    (m - 1) B and (m + 1) B pulled back through B; a piece that m fixes
    or negates as a whole moves on unsplit, with no kernel computed.
    Every final piece is therefore made of joint eigenvectors, and the
    pieces are independent, since each split is into subspaces meeting
    only in 0.  So the pieces fill the space exactly when the inputs are
    commuting involutions: if they are, each input maps every earlier
    piece, a joint eigenspace of the inputs before it, into itself and
    splits it completely (commuting involutions over Q are
    simultaneously diagonalisable; Hoffman-Kunze, *Linear Algebra*
    §6.5); if the pieces fill the space, their columns form a basis P
    in which each input is P D P^-1 with D diagonal of signs, and such
    matrices square to 1 and commute.  At most d pieces are nonzero, so
    this takes O(n d) kernels of small matrices.

    When the pieces fall short, the squares and the pairwise products
    are checked in turn, to say which condition failed: a non-involution
    is reported before a non-commuting pair.
    """
    mats = list(involutions)
    if not mats:
        raise ValueError("need at least one involution")
    d = mats[0].rows
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("dimension mismatch")
    pieces = {0: Matrix.identity(d)} if d else {}  # bit j: input j + 1 negates the piece
    for j, m in enumerate(mats):
        split = {}
        for mask, basis in pieces.items():
            image = m * basis
            if image == basis:
                split[mask] = basis
            elif image == -basis:
                split[mask | 1 << j] = basis
            else:
                for key, shifted in ((mask, image - basis), (mask | 1 << j, image + basis)):
                    part = basis * shifted.kernel_basis()
                    if part.cols:
                        split[key] = part
        pieces = split
    if sum(basis.cols for basis in pieces.values()) != d:
        for m in mats:
            if not (m * m).is_identity():
                raise ValueError("input is not an involution")
        for a, b in itertools.combinations(mats, 2):
            if a * b != b * a:
                raise ValueError("involutions do not commute")
        raise AssertionError("eigenspaces do not fill the space")
    order = sorted(pieces)
    basis = Matrix.from_columns([c for mask in order for c in zip(*pieces[mask].data)], rows=d)
    return EpsDecomposition(len(mats), basis,
                            tuple(mask for mask in order for _ in range(pieces[mask].cols)))


def diamond_violations(rep: FiniteRep, decomp: EpsDecomposition, i: int, j: int) -> list:
    """The k outside {i, j} whose involution e_k does not commute with rho{i}{j}.

    The containment law holds when this is empty: ``rho{i}{j}`` may move
    the joint eigenspace of a subset I only into the pieces allowed for
    I, those indexed by subsets differing from I inside {i, j}.  They add
    up to exactly the vectors on which every e_k with k outside {i, j}
    acts by the sign of I.  The pieces fill the space, so ``rho{i}{j}``
    maps every piece into its allowed sum if and only if it commutes
    with each such e_k.

    In the joint eigenbasis P, rho{i}{j} is r' = P^-1 r P and e_k is the
    diagonal sign matrix D_k, and D_k r' = r' D_k exactly when
    r'[a][b] = 0 wherever the signs of e_k at columns a and b differ,
    that is wherever k lies in the symmetric difference of their
    subsets.  So the answer is the k outside {i, j} lying in that
    symmetric difference for some nonzero entry of r', in two products.
    """
    name = f"rho{i}{j}"
    if name not in rep.generators:
        raise ValueError(f"rep has no generator {name!r}")
    r = rep.generators[name]
    if r.rows != decomp.basis.rows:
        raise ValueError("dimension mismatch")
    moved = decomp.basis_inverse * (r * decomp.basis)
    labels = decomp.labels
    differ = 0  # bit k-1 set when some nonzero entry links two signs of e_k
    for a, row in zip(labels, moved.data):
        for b, x in zip(labels, row):
            if x:
                differ |= a ^ b
    return [k for k in range(1, decomp.n + 1)
            if k not in (i, j) and differ >> (k - 1) & 1]


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
