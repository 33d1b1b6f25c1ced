"""Seeded input files for the benchmark workloads, in plain Python.

Nothing here imports ``outfn``: the inputs are written straight in the
file formats the CLI reads (``graph --file`` action and graph files,
``decompose --rep`` representation files), so a change to the program
cannot change what it is fed.

The seed only relabels: it renames vertices and edges, reorders the
edge listing, and conjugates a representation by a permutation of its
basis.  The outcome of every check is the same for every seed, and so
is the amount of work, up to the pivot order elimination meets.
"""

from __future__ import annotations

import itertools
import math
import random


def _names(rng: random.Random, prefix: str, count: int) -> list:
    """``count`` distinct names ``prefix<number>`` in random order."""
    numbers = rng.sample(range(10 * count, 100 * count), count)
    return [f"{prefix}{x}" for x in numbers]


def _cage(rng: random.Random, k: int):
    """A relabelled k-cage: edge index m (1-based) -> edge name, plus JSON."""
    u, w = _names(rng, "v", 2)
    edges = _names(rng, "e", k)
    listing = [{"id": e, "iota": u, "tau": w} for e in edges]
    rng.shuffle(listing)
    vertices = [u, w]
    rng.shuffle(vertices)
    label = {m: edges[m - 1] for m in range(1, k + 1)}
    return label, {"vertices": vertices, "edges": listing}, (u, w)


def cage_graph_file(seed: int, k: int) -> dict:
    """The k-cage (two vertices, k parallel edges), relabelled by the seed."""
    _, graph, _ = _cage(random.Random(seed), k)
    return {"graph": graph}


def alternating_cage_action_file(seed: int, k: int) -> dict:
    """A_k permuting the edges of the k-cage by index, relabelled.

    Generators are the 3-cycles (1 2 i), i = 3..k, with the relations
    t^3 = 1 and (t t')^2 = 1, which present A_k.  A_k is perfect for
    k >= 5, so the descriptor says so.
    """
    if k < 5:
        raise ValueError("A_k is perfect only for k >= 5")
    label, graph, (u, w) = _cage(random.Random(seed), k)
    gens = [f"t{i}" for i in range(3, k + 1)]
    relations = [[g] * 3 for g in gens]
    relations += [[a, b, a, b] for a, b in itertools.combinations(gens, 2)]
    maps = {}
    for i in range(3, k + 1):
        cycle = {1: 2, 2: i, i: 1}
        maps[f"t{i}"] = {
            "vertex_map": {u: u, w: w},
            "edge_map": {label[m]: label[cycle.get(m, m)] for m in range(1, k + 1)},
            "flips": {},
        }
    group = {"name": f"A{k}", "generators": gens, "relations": relations,
             "perfect": True, "order": math.factorial(k) // 2}
    return {"graph": graph, "group": group, "maps": maps}


# -- the exterior square of the signed-permutation representation --------


def _identity(d: int) -> list:
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _exterior_square(m: list) -> list:
    pairs = list(itertools.combinations(range(len(m)), 2))
    return [[m[p][r] * m[q][s] - m[p][s] * m[q][r] for (r, s) in pairs]
            for (p, q) in pairs]


def _signed_permutation_group(n: int) -> dict:
    """Type-B Coxeter presentation on e1 and the adjacent swaps s1..s(n-1)."""
    swaps = [f"s{i}" for i in range(1, n)]
    relations = [["e1", "e1"], ["e1", "s1"] * 4]
    relations += [["e1", f"s{i}"] * 2 for i in range(2, n)]
    relations += [[s, s] for s in swaps]
    relations += [[f"s{i}", f"s{i + 1}"] * 3 for i in range(1, n - 1)]
    relations += [[f"s{i}", f"s{j}"] * 2
                  for i in range(1, n) for j in range(i + 2, n)]
    return {"name": f"W{n}", "generators": ["e1"] + swaps, "relations": relations,
            "perfect": False, "order": 2 ** n * math.factorial(n)}


def signed_exterior_square_rep_file(seed: int, n: int) -> dict:
    """Exterior square of W_n acting by signed permutations of Q^n.

    Also carries ``rho{i}{j}``, the exterior square of the transvection
    a_i -> a_i a_j on the abelianisation, for every ordered pair, which
    switches on the containment checks.  Every matrix is conjugated by
    the same seeded permutation of the C(n, 2) basis vectors.
    """
    if not 2 <= n <= 9:
        raise ValueError("rho{i}{j} names need single-digit indices")
    base = {}
    e1 = _identity(n)
    e1[0][0] = -1
    base["e1"] = e1
    for i in range(1, n):
        s = _identity(n)
        s[i - 1][i - 1] = s[i][i] = 0
        s[i - 1][i] = s[i][i - 1] = 1
        base[f"s{i}"] = s
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                t = _identity(n)
                t[j - 1][i - 1] = 1   # column i is e_i + e_j
                base[f"rho{i}{j}"] = t
    dim = n * (n - 1) // 2
    perm = list(range(dim))
    random.Random(seed).shuffle(perm)
    generators = {}
    for name, m in base.items():
        sq = _exterior_square(m)
        conj = [[sq[perm[a]][perm[b]] for b in range(dim)] for a in range(dim)]
        generators[name] = {"rows": dim, "cols": dim,
                            "entries": [[str(x) for x in row] for row in conj]}
    return {"group": _signed_permutation_group(n), "dim": dim,
            "generators": generators}
