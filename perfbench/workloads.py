"""The benchmark workloads: argv, item counts, inputs and expected values.

Each workload is a list of ``outfn`` CLI invocations with ``--json``
reports.  Expected values come from closed formulas here, not from the
program: the relator count of the presentation, the induced dimension
(2^n - 1) dim U, the order of A_k, the C(k, 2) simple loops of the
k-cage, and the layer dimensions of an exterior square.

Sizes are parameters so the smoke test can run the same workloads at
tiny ranks; ``FULL`` holds the sizes the benchmark measures.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import comb, factorial

import inputs

NAMES = ("presentation", "induction", "graph-lemmas", "decomposition")

FULL = {"presentation": {"n": 5}, "induction": {"n": 4},
        "graph-lemmas": {"k": 6, "cage": 16}, "decomposition": {"n": 5}}

TINY = {"presentation": {"n": 3}, "induction": {"n": 3},
        "graph-lemmas": {"k": 5, "cage": 5}, "decomposition": {"n": 4}}

# What each workload loads, what it leaves idle and why, and seed use.
NOTES = {
    "presentation": {
        "unit": "relators",
        "loads": "words (compose, inverse re-certification, is_inner)",
        "bypasses": "linalg, graphs, symreps, induced: the relator suite is "
                    "pure word algebra, so this is the no-change side for them",
        "seed": "ignored: the suite is fixed by the rank",
    },
    "induction": {
        "unit": "relators",
        "loads": "induced block products, words/cover (block_of, minus_grid), "
                 "Matrix construction in to_json and the JSON dump in cli",
        "bypasses": "graphs, symreps, actions: induction never builds a graph "
                    "or a finite-group module",
        "seed": "ignored: the representation is fixed by the rank",
    },
    "graph-lemmas": {
        "unit": "group elements + simple loops",
        "loads": "graphs (element enumeration, trace averaging, loop "
                 "enumeration) carried by linalg (Fraction mul/solve/apply)",
        "bypasses": "words, cover, induced: graph lemmas never touch the free "
                    "group",
        "seed": "relabels vertices and edges and reorders the edge listing",
    },
    "decomposition": {
        "unit": "joint eigenspaces + containment checks",
        "loads": "symreps (relations, joint eigenspaces, diamond laws) and "
                 "linalg through a few large eliminations",
        "bypasses": "words, graphs, induced: the rep arrives as matrices",
        "seed": "conjugates the rep by a permutation of its basis",
    },
}


def gersten_relator_count(n: int) -> int:
    """Number of index tuples in the nine relator families at rank n."""
    return (2 * n * (n - 1) * (n - 2) ** 2            # commuting pairs
            + n * (n - 1) * ((n - 1) + (n - 2) ** 2)  # left-right pairs
            + 8 * n * (n - 1) * (n - 2)               # commutator identities
            + 2 * n * (n - 1)                         # quarter turns
            + 2 * (n - 1) * (n - 2)                   # inversion commutes
            + 2 + 1 + n)                              # twist, involution, inner


def induced_dimension(n: int) -> int:
    dim_u = comb(n, 2) if n == 3 else comb(n - 1, 2)
    return (2 ** n - 1) * dim_u


@dataclass
class Workload:
    """A workload at fixed sizes, with inputs written under ``workdir``."""

    name: str
    workdir: str
    argvs: list = field(default_factory=list)
    reports: list = field(default_factory=list)   # --json paths, per argv
    outputs: list = field(default_factory=list)   # other files to compare
    items: int = 0
    expect: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def build(name: str, seed: int, workdir: str, sizes: dict | None = None) -> Workload:
    """Write the workload's inputs into ``workdir`` and return its spec.

    Invocations use paths relative to ``workdir``, which is the child's
    working directory, so reports do not depend on where the run lives.
    """
    sizes = dict(FULL[name] if sizes is None else sizes)
    w = Workload(name, workdir)
    if name == "presentation":
        n = sizes["n"]
        w.argvs = [["gersten", "--n", str(n), "--jobs", "1", "--json", "gersten.json"]]
        w.reports = ["gersten.json"]
        w.items = gersten_relator_count(n)
        w.expect = {"families": 9, "relators": w.items}
    elif name == "induction":
        n = sizes["n"]
        w.argvs = [["induce", "--n", str(n), "--out", "matrices.json",
                    "--json", "induce.json"]]
        w.reports = ["induce.json"]
        w.outputs = ["matrices.json"]
        w.items = gersten_relator_count(n)
        w.expect = {"m": induced_dimension(n), "relators": w.items,
                    "generators": 1 + 2 * n * (n - 1)}
    elif name == "graph-lemmas":
        k, cage = sizes["k"], sizes["cage"]
        _write(w.path("action.json"), inputs.alternating_cage_action_file(seed, k))
        _write(w.path("graph.json"), inputs.cage_graph_file(seed, cage))
        w.argvs = [["graph", "cage-lemma", "--file", "action.json",
                    "--json", "cage_lemma.json"],
                   ["graph", "double-tree", "--file", "graph.json",
                    "--xi", "vertex-swap", "--json", "double_tree.json"]]
        w.reports = ["cage_lemma.json", "double_tree.json"]
        w.items = factorial(k) // 2 + comb(cage, 2)
        w.expect = {"orbit_count": 1, "trivial_multiplicity": 0,
                    "double_tree_checks": 6, "tree_edges": cage,
                    "fixed_vertices": cage, "fixed_edges": 0}
    elif name == "decomposition":
        n = sizes["n"]
        _write(w.path("rep.json"), inputs.signed_exterior_square_rep_file(seed, n))
        w.argvs = [["decompose", "--rep", "rep.json", "--json", "decompose.json"]]
        w.reports = ["decompose.json"]
        w.items = 2 ** n + n * (n - 1)
        layers = [0] * (n + 1)
        layers[2] = comb(n, 2)
        w.expect = {"layers": layers, "checks": 2 + n * (n - 1)}
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _all_pass(report) -> bool:
    try:
        s = report["summary"]
        return s["failed"] == 0 and s["passed"] == s["total"] > 0
    except (KeyError, TypeError):
        return False


def _details(report: dict, prefix: str) -> dict:
    for c in report["checks"]:
        if c["name"].startswith(prefix):
            return c["details"]
    raise KeyError(prefix)


def _expected(w: Workload, reports: list) -> list:
    e = w.expect
    if w.name == "presentation":
        (rep,) = reports
        return [("9 relator families", len(rep["checks"]) == e["families"]),
                ("relator count", rep["parameters"]["relators"] == e["relators"]),
                ("family sizes add up",
                 sum(c["details"]["tuples"] for c in rep["checks"]) == e["relators"])]
    if w.name == "induction":
        (rep,) = reports
        cert = _details(rep, "non-factoring certificate")
        # family checks are named "relators: <family> (<count> tuples)"
        sizes = [int(c["name"].rsplit("(", 1)[1].split()[0])
                 for c in rep["checks"] if c["name"].startswith("relators:")]
        matrices = _load(w.path(w.outputs[0]))
        return [("m", _details(rep, "dimension m")["m"] == e["m"]),
                ("certificate found", cert["found"] is True),
                ("kernel membership", cert["kernel_membership"] is True),
                ("relator count", sum(sizes) == e["relators"]),
                ("matrix file m", matrices["m"] == e["m"]),
                ("matrix file generators", len(matrices["generators"]) == e["generators"])]
    if w.name == "graph-lemmas":
        lemma, tree = reports
        res = _details(lemma, "trivial multiplicity")
        fixed = _details(tree, "fixed set recorded")
        return [("orbit count", res["orbit_count"] == e["orbit_count"]),
                ("trivial multiplicity",
                 res["trivial_multiplicity"] == e["trivial_multiplicity"]),
                ("double-tree checks", tree["summary"]["passed"] == e["double_tree_checks"]),
                ("tree edges", fixed["tree_edges"] == e["tree_edges"]),
                ("fixed vertices", len(fixed["fixed_vertices"]) == e["fixed_vertices"]),
                ("fixed edges", len(fixed["fixed_edges"]) == e["fixed_edges"])]
    if w.name == "decomposition":
        (rep,) = reports
        return [("layer dimensions",
                 _details(rep, "eigenspaces fill the space")["layers"] == e["layers"]),
                ("check count", rep["summary"]["passed"] == e["checks"])]
    raise ValueError(f"unknown workload {w.name!r}")


def expected_values(w: Workload) -> list:
    """``(check name, ok)`` for the workload's expected values."""
    reports = [_load(w.path(r)) for r in w.reports]
    try:
        return _expected(w, reports)
    except (KeyError, IndexError, TypeError, ValueError):
        return [("expected values readable from the reports", False)]


def check_sample(w: Workload, codes: list) -> list:
    """Every check of one sample: exit codes, all-pass reports, expected values."""
    out = [(f"exit 0: {' '.join(argv[:2])}", code == 0)
           for argv, code in zip(w.argvs, codes + [None] * len(w.argvs))]
    out += [(f"all checks pass: {r}", _all_pass(_load(w.path(r)))) for r in w.reports]
    return out + expected_values(w)


def output_files(w: Workload) -> list:
    """Files that must be byte-identical between samples of one seed."""
    return w.reports + w.outputs
