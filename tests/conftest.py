"""Shared builders and independent oracles used across the tests."""

from __future__ import annotations

import itertools
from fractions import Fraction

from outfn import linalg, symreps


def oracle_simple_cycles(g):
    """Simple cycles as edge subsets: every touched vertex has degree
    exactly two and the touched subgraph is connected.  Independent of
    the DFS enumeration in the library."""
    out = []
    for r in range(1, len(g.edges) + 1):
        for combo in itertools.combinations(g.edges, r):
            deg = {}
            for e in combo:
                io, ta = g.ends[e]
                deg[io] = deg.get(io, 0) + 1
                deg[ta] = deg.get(ta, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = list(deg)
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for e in combo:
                io, ta = g.ends[e]
                a, b = find(io), find(ta)
                if a != b:
                    parent[a] = b
            if len({find(v) for v in verts}) == 1:
                out.append(frozenset(combo))
    return out


def oracle_min_loop(g, e):
    lengths = [len(c) for c in oracle_simple_cycles(g) if e in c]
    return min(lengths) if lengths else None


def perm_matrix(perm, n) -> linalg.Matrix:
    """Column j is the image basis vector of e_j under the permutation."""
    return linalg.Matrix(
        [[Fraction(1 if perm[j] == i + 1 else 0) for j in range(n)]
         for i in range(n)]
    )


def transvection(i, j, n) -> linalg.Matrix:
    """e_i -> e_i + e_j, the abelianised right multiplication."""
    m = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    m[j - 1][i - 1] = Fraction(1)
    return linalg.Matrix(m)


def flip_matrix(i, n) -> linalg.Matrix:
    m = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    m[i - 1][i - 1] = Fraction(-1)
    return linalg.Matrix(m)


def signed_permutation_rep(n) -> symreps.FiniteRep:
    """The natural representation of the signed permutation group."""
    gens = {"e1": flip_matrix(1, n)}
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens[f"s{i}"] = perm_matrix(tuple(p), n)
    return symreps.FiniteRep(symreps.signed_permutation_group(n), n, gens)


def with_transvections(rep: symreps.FiniteRep, n,
                       build=transvection) -> symreps.FiniteRep:
    """Adjoin rho matrices to a signed permutation rep (same carrier)."""
    gens = dict(rep.generators)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens[f"rho{i}{j}"] = build(i, j, n)
    desc = symreps.GroupDescriptor(rep.group.name + "+rho", tuple(gens),
                                   rep.group.relations)
    return symreps.FiniteRep(desc, rep.dim, gens)


def exterior_square_rep(n) -> symreps.FiniteRep:
    """Signed permutations acting on the exterior square of the carrier."""
    base = signed_permutation_rep(n)
    d = n * (n - 1) // 2
    gens = {name: linalg.exterior_square(m) for name, m in base.generators.items()}
    return symreps.FiniteRep(base.group, d, gens)


def symmetric_group_perm_rep(n) -> symreps.FiniteRep:
    gens = {}
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens[f"s{i}"] = perm_matrix(tuple(p), n)
    return symreps.FiniteRep(symreps.symmetric_group(n), n, gens)


def determinant_rep(n) -> symreps.FiniteRep:
    gens = {f"s{i}": linalg.Matrix([[Fraction(-1)]]) for i in range(1, n)}
    return symreps.FiniteRep(symreps.symmetric_group(n), 1, gens)
