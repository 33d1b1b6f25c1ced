"""What ``src/outfn`` may hold that no CLI path runs.

A fixed corpus of in-process ``cli.main`` calls runs under
``sys.setprofile``: the commands CI runs, at the tests' sizes, and usage
errors.  Every function, method and property of the eight modules,
private ones included, must be entered by the corpus or be listed in
``KEPT`` with its reason.  So a new function in ``src`` that only the
tests call fails here (move it to the tests), and so does a ``KEPT``
entry that is stale or that the corpus now reaches (delete it).
"""

import contextlib
import inspect
import io
import json
import sys

import pytest

from conftest import benchmark_inputs, to_json
from outfn import actions, cli, cover, graphs, induced, linalg, symreps, words

MODULES = (words, linalg, symreps, graphs, actions, cover, induced, cli)

# Why a function no CLI path runs stays in ``src``:
REASONS = {
    "benchmark",         # perfbench/tracer.py or perfbench/test_smoke.py names it
    "acceptance",        # tests/test_acceptance.py imports it
    "ROADMAP item 6",    # reserved for the degree tables
    "ROADMAP item 9",    # reserved for the graph-lemma witnesses
    "ROADMAP item 10",   # reserved for the stock actions in Out(F_n)
    "oracle",            # the independent check of a CLI output
    "value API",         # equality, hashing and algebra of a value class
    "failure path",      # entered only when a check fails
}

KEPT = {
    # the certified automorphism layer, until the benchmark drops its names
    "words.Automorphism.__init__": "benchmark",
    "words.Automorphism.__post_init__": "benchmark",
    "words.Automorphism.__eq__": "benchmark",
    "words.Automorphism.__hash__": "benchmark",
    "words.Automorphism.rank": "benchmark",
    "words.Automorphism.images": "benchmark",
    "words.Automorphism.apply": "benchmark",
    "words.Automorphism.inverse": "benchmark",
    "words.Automorphism.__mul__": "benchmark",
    "words.Automorphism.is_identity": "benchmark",
    "words.Endomorphism.fixes_generators": "benchmark",
    "words.compose": "benchmark",
    "words.automorphism": "benchmark",
    "words.rho": "benchmark",
    "words.Word.__eq__": "value API",
    "words.Word.__hash__": "value API",
    "words.Word.__len__": "value API",
    "words.Word.__mul__": "value API",
    "words.Word.inverse": "value API",
    "words.Word.is_identity": "value API",
    "words.Word.to_json": "failure path",  # the images of a failing relator
    "words.Endomorphism.__eq__": "value API",
    "words.Endomorphism.__hash__": "value API",
    "words._sigma_star_move": "ROADMAP item 10",
    "words._delta_move": "ROADMAP item 10",
    "linalg.Matrix.__hash__": "value API",
    "linalg.Matrix.__repr__": "value API",
    "linalg.Matrix.zeros": "acceptance",
    "linalg.Matrix.vstack": "acceptance",
    "linalg.Matrix.scale": "acceptance",
    "linalg.Matrix.trace": "acceptance",
    "linalg.Matrix.to_json": "oracle",  # of the ``induce --out`` file
    "linalg.exterior_square": "acceptance",
    "symreps.GroupDescriptor.__eq__": "value API",
    "symreps.FiniteRep.verify_relations": "acceptance",
    "symreps.FiniteRep.direct_sum": "acceptance",
    "symreps.check_diamond": "acceptance",
    "symreps.partitions": "ROADMAP item 6",
    "symreps._partitions": "ROADMAP item 6",
    "symreps.class_size": "ROADMAP item 6",
    "symreps.named_character": "ROADMAP item 6",
    "symreps.class_representative": "ROADMAP item 6",
    "symreps.adjacent_factorization": "ROADMAP item 6",
    "symreps.multiplicity": "ROADMAP item 6",
    "graphs.Graph.edges_at": "ROADMAP item 9",
    "graphs.GraphAut.__eq__": "value API",
    "graphs.GraphAction.verify_relations": "acceptance",
    "graphs.induced_matrix": "acceptance",  # through induced_rep
    "graphs.induced_rep": "acceptance",
    "graphs.min_loop_through_edge": "ROADMAP item 9",
    "graphs.separating_edges": "ROADMAP item 9",
    "graphs.admissibility_obstruction": "ROADMAP item 9",
    "graphs.is_admissible": "acceptance",
}


def functions() -> dict:
    """Code object -> ``module.qualname`` of every function, method and
    property accessor defined in the eight modules."""
    found = {}
    for mod in MODULES:
        layer = mod.__name__.rpartition(".")[2]
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    fns = [member.__func__]
                elif isinstance(member, property):
                    fns = [member.fget, member.fset, member.fdel]
                else:
                    fns = [member]
                for fn in fns:
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        found[fn.__code__] = f"{layer}.{fn.__qualname__}"
    return found


def corpus(tmp_path) -> list:
    """The argv of each call, with its input files written to ``tmp_path``."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    inputs = benchmark_inputs()
    rep = write("w5.json", inputs.signed_exterior_square_rep_file(1, 5))
    cage = write("c9.json", inputs.cage_graph_file(3, 9))
    action = write("a5.json", to_json(actions.alternating_cage(5)))
    out, report = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    graph = [
        ["admissible", "--builtin", "cage:7", "--group", "G6"],
        ["admissible", "--builtin", "rose:5", "--group", "W5"],
        ["admissible", "--builtin", "cage:6", "--group", "B5"],
        ["admissible", "--builtin", "barbell", "--group", "trivial"],
        ["admissible", "--file", action],
        ["rose-lemma", "--builtin", "rose:7", "--group", "A7"],
        ["rose-lemma", "--builtin", "rose:4", "--group", "S4"],
        ["cage-lemma", "--builtin", "cage:5", "--group", "A5"],
        ["cage-lemma", "--builtin", "cage:4", "--group", "S4"],
        ["cage-lemma", "--file", action],
        ["homology", "--builtin", "cover:5"],
        ["homology", "--builtin", "daisy:3"],
        ["homology", "--file", cage],
        ["double-tree", "--builtin", "cage:5", "--xi", "vertex-swap"],
        ["double-tree", "--builtin", "cage:2", "--xi", "strand-swap"],
        ["double-tree", "--builtin", "rose:3", "--xi", "flip-all"],
        ["double-tree", "--file", cage, "--xi", "def57"],
        ["collapse", "--builtin", "cage:3", "--edges", "c1"],
    ]
    return [
        ["gersten", "--n", "3", "--json", report],
        ["gersten", "--n", "4", "--jobs", "1"],
        ["section4", "--n", "3", "--json", report],
        ["induce", "--n", "3", "--out", out, "--json", report],
        ["induce", "--n", "3", "--mu", "2", "--out", out],
        ["decompose", "--rep", rep, "--json", report],
        *(["graph", *argv, "--json", report] for argv in graph),
        ["--help"], ["graph", "--help"], [], ["gersten"],
        ["gersten", "--n", "3", "--bogus", "1"], ["gersten", "--n", "11"],
        ["graph", "homology", "--builtin", "rose:65"],
    ]


def entered(argvs) -> set:
    """The code objects entered while ``cli.main`` runs each argv."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv in argvs]
        finally:
            sys.setprofile(previous)
    assert 2 in codes and 3 not in codes, codes
    return seen


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    found = functions()
    seen = entered(corpus(tmp_path_factory.mktemp("surface")))
    return {name for code, name in found.items() if code not in seen}


def test_every_kept_entry_has_a_known_reason():
    assert set(KEPT.values()) <= REASONS


def test_src_holds_only_what_the_cli_runs_or_kept_names(unreached):
    assert sorted(unreached - KEPT.keys()) == [], \
        "no CLI path runs these: move them to the tests, or keep them with a reason"


def test_kept_entries_exist_and_stay_unreached(unreached):
    defined = set(functions().values())
    assert sorted(KEPT.keys() - defined) == [], "stale KEPT entries: delete them"
    assert sorted(KEPT.keys() - unreached) == [], \
        "the CLI corpus reaches these: delete them from KEPT"
