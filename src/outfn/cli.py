"""Batch verification harness.

Every check is a subcommand emitting a JSON report with a fixed shape:
command, parameters, a list of named checks with pass/fail/skip status
(skip when a lemma's hypothesis is not met), and summary counts.  Exit
codes: 0 when no check fails, 1 when some check fails, 2 on usage or
input errors (a ``UsageError``, a library ``ValueError`` for an input
that fails a precondition, or an ``OSError`` such as an unwritable
output path), 3 on any other exception, reported in one line.  ``main``
alone maps exceptions to exit codes.  Reports contain no timestamps, so
identical invocations produce byte-identical output; all numbers are
exact (integers or "p/q" strings).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import actions, cover, graphs, induced, symreps, words


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# reports


def make_report(command: str, parameters: dict, checks: list) -> dict:
    for c in checks:
        if c["status"] not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {c['status']!r}")
    summary = {
        "total": len(checks),
        "passed": sum(c["status"] == "pass" for c in checks),
        "failed": sum(c["status"] == "fail" for c in checks),
        "skipped": sum(c["status"] == "skip" for c in checks),
    }
    return {"command": command, "parameters": parameters,
            "checks": checks, "summary": summary}


def check(name: str, ok: bool, details=None) -> dict:
    return {"name": name, "status": "pass" if ok else "fail",
            "details": details if details is not None else {}}


def emit(report: dict, json_path) -> int:
    for c in report["checks"]:
        print(f"[{c['status'].upper():4s}] {c['name']}")
    s = report["summary"]
    print(f"{report['command']}: {s['passed']}/{s['total']} passed, "
          f"{s['failed']} failed, {s['skipped']} skipped")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if s["failed"] == 0 else 1


def _require_relations(what: str, failed: list) -> None:
    """Refuse an input whose defining relations fail, naming each one."""
    if failed:
        raise UsageError(f"{what} fails {len(failed)} defining relation(s): {failed}")


def _load(path, what: str, build):
    """``build`` applied to the JSON in ``path``; malformed files are usage errors."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot read {what} file: {exc}")


# ---------------------------------------------------------------------------
# gersten


def cmd_gersten(args) -> int:
    n = args.n
    if not 3 <= n <= 10:
        raise UsageError("presentation checks support 3 <= n <= 10")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    rep = words.verify_gersten(n, jobs=args.jobs)
    checks = []
    for fam in rep["families"]:
        details = {"tuples": fam["count"], "failures": fam["failures"]}
        if fam["failures"]:
            details["images"] = fam["images"]
        checks.append(check(f"family: {fam['name']} ({fam['count']} tuples)",
                            not fam["failures"], details))
    report = make_report("gersten", {"n": n, "jobs": args.jobs,
                                     "relators": rep["total"]}, checks)
    return emit(report, args.json)


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    rep, n, pairs = _load(args.rep, "rep", symreps.read_signed_rep)
    _require_relations("rep", rep.failed_relations())
    decomp = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
    checks = []
    table = {
        ",".join(map(str, sorted(subset))) or "-": basis.cols
        for subset, basis in decomp.spaces.items()
    }
    checks.append(check("eigenspaces fill the space",
                        decomp.total_dim() == rep.dim,
                        {"dims": table, "layers": list(decomp.layer_dims)}))
    div = symreps.divisibility_check(decomp)
    checks.append(check("layer dimensions divisible by binomials",
                        div["ok"], {"layers": div["layers"]}))
    for i, j in pairs:
        outside = symreps.diamond_violations(rep, decomp, i, j)
        witness = {"noncommuting": [f"e{k}" for k in outside]} if outside else None
        checks.append(check(f"diamond containment rho{i}{j}", not outside, witness))
    report = make_report("decompose", {"rep": str(args.rep), "n": n}, checks)
    return emit(report, args.json)


# ---------------------------------------------------------------------------
# section4 (double-cover representation tables)


def cmd_section4(args) -> int:
    n = args.n
    if not 3 <= n <= 6:
        raise UsageError("cover table checks support 3 <= n <= 6")
    rep = cover.verify_ia_action_tables(n)
    families = words.family_report(
        (c["family"], c["name"], c["ok"]) for c in rep["checks"])
    checks = [
        check(f"{fam['name']} ({fam['count']} cases)", not fam["failures"],
              {"failures": fam["failures"]})
        for fam in families
    ]
    plus, minus = rep["deck_eigenspace_dims"]
    checks.append(check("deck eigenspace dimensions (n, n-1)",
                        (plus, minus) == (n, n - 1),
                        {"plus": plus, "minus": minus}))
    report = make_report("section4", {"n": n}, checks)
    return emit(report, args.json)


# ---------------------------------------------------------------------------
# induce


def _parse_mu(text):
    if text is None:
        return None
    return tuple(int(p) for p in text.split(",") if p.strip())


def cmd_induce(args) -> int:
    n = args.n
    if n not in (3, 4, 5):
        raise UsageError("induction supports n in {3, 4, 5}")
    rep = induced.induce(n, _parse_mu(args.mu))
    out_path = args.out or f"induced_n{n}_mu{'-'.join(map(str, rep.mu))}.json"
    # opened before the checks run, so that an unwritable path fails at
    # once; removed again if anything raises before the dump completes
    with open(out_path, "w") as fh:
        try:
            checks = [check(f"dimension m = {rep.m}",
                            rep.m == (2 ** n - 1) * rep.dim_u,
                            {"m": rep.m, "cosets": len(rep.cosets), "dim_u": rep.dim_u})]
            for fam in rep.relator_report()["families"]:
                checks.append(check(f"relators: {fam['name']} ({fam['count']} tuples)",
                                    not fam["failures"], {"failures": fam["failures"]}))
            cert = induced.check_not_factoring(rep)
            checks.append(check("non-factoring certificate", cert["found"], cert))
            # the generators (``to_json``'s last key) are written row by
            # row in ``json.dumps``'s layout: every entry is a decimal
            # integer string, so joining the strings needs no escaping
            obj = rep.to_json()
            generators = obj.pop("generators")
            fh.write(json.dumps(obj)[:-1] + ', "generators": {')
            for k, (name, matrix) in enumerate(generators.items()):
                rows = ", ".join(['["' + '", "'.join(row) + '"]'
                                  for row in matrix["entries"]])
                fh.write('%s%s: {"rows": %d, "cols": %d, "entries": [%s]}' % (
                    ", " if k else "", json.dumps(name),
                    matrix["rows"], matrix["cols"], rows))
            fh.write("}}\n")
        except BaseException:
            if os.path.isfile(out_path) and not os.path.islink(out_path):
                os.remove(out_path)  # a regular file, not /dev/stdout or a link
            raise
    report = make_report("induce", {"n": n, "mu": list(rep.mu),
                                    "matrices": str(out_path)}, checks)
    return emit(report, args.json)


# ---------------------------------------------------------------------------
# graph


# The tables look builders up on their module at call time, never at import,
# so that a patched module attribute (as in tracing) takes effect.

# builtin graph name -> builder of the size after the colon
_GRAPHS = {
    "rose": lambda k: graphs.rose(k),
    "cage": lambda k: graphs.cage(k),
    "daisy": lambda k: graphs.daisy_chain(k),
    "cover": lambda k: graphs.cover_of_rose(k),
    "barbell": lambda k: graphs.barbell(),
}

_INVOLUTIONS = {
    "vertex-swap": lambda g: actions.vertex_swap(g),
    "strand-swap": lambda g: actions.strand_swap(g),
    "flip-all": lambda g: actions.petal_flip_involution(g),
    "def57": lambda g: actions.parity_involution(g),
}


def _builtin_graph(token: str) -> graphs.Graph:
    name, colon, arg = token.partition(":")
    if name not in _GRAPHS:
        raise UsageError(f"unknown builtin graph {token!r}")
    if name == "barbell" and colon:
        raise UsageError(f"builtin graph {token!r}: barbell takes no size")
    return _GRAPHS[name](int(arg or 0))


def _builtin_action(graph_token: str, group: str) -> graphs.GraphAction:
    name, _, arg = graph_token.partition(":")
    k = int(arg or 0)
    if group.upper() == "TRIVIAL":
        return actions.trivial_action(_builtin_graph(graph_token))
    build = {
        ("rose", f"S{k}"): actions.symmetric_rose,
        ("rose", f"A{k}"): actions.alternating_rose,
        ("rose", f"W{k}"): actions.signed_rose,
        ("cage", f"S{k}"): actions.symmetric_cage,
        ("cage", f"A{k}"): actions.alternating_cage,
        ("cage", f"G{k - 1}"): actions.cage_full,
        ("cage", f"B{k - 1}"): actions.cage_central_alternating,
    }.get((name, group.upper()))
    if build is None:
        raise UsageError(f"no builtin action of {group!r} on {graph_token!r}")
    return build(k)


def _graph_from_args(args) -> graphs.Graph:
    if args.builtin:
        return _builtin_graph(args.builtin)
    if args.file:
        return _load(args.file, "graph",
                     lambda obj: graphs.Graph.from_json(obj.get("graph", obj)))
    raise UsageError("supply --builtin or --file")


def _action_from_args(args) -> graphs.GraphAction:
    if args.builtin:
        if not args.group:
            raise UsageError("builtin actions need --group")
        return _builtin_action(args.builtin, args.group)
    if args.file:
        return _load(args.file, "action", lambda obj: graphs.action_from_json(
            graphs.Graph.from_json(obj["graph"]), obj))
    raise UsageError("supply --builtin with --group, or --file")


def cmd_graph(args) -> int:
    sub = args.subaction
    checks = []
    params = {"subaction": sub, "builtin": args.builtin, "group": args.group,
              "xi": args.xi, "file": args.file}

    if sub == "admissible":
        action = _action_from_args(args)
        _require_relations("action", action.failed_relations())
        checks += [check(*c) for c in graphs.admissibility_conditions(action)]
        checks.append(check("admissible", all(c["status"] == "pass" for c in checks)))

    elif sub == "homology":
        g = _graph_from_args(args)
        basis = graphs.h1_basis(g)
        expected = len(g.edges) - len(g.vertices) + g.component_count()
        checks.append(check(f"cycle space dimension = {expected}",
                            basis.dim == expected,
                            {"edges": len(g.edges), "vertices": len(g.vertices),
                             "components": g.component_count(), "dim": basis.dim}))

    elif sub == "rose-lemma":
        action = _action_from_args(args)
        _require_relations("action", action.failed_relations())
        res = graphs.invariant_orientation(action)
        checks.append(check("invariant orientation exists",
                            res["orientation"] is not None,
                            {"obstruction_edge": str(res["obstruction_edge"])}))
        checks.append(check(
            "trivial multiplicity equals orbit count", res["counts_match"],
            {"orbit_count": res["orbit_count"],
             "trivial_multiplicity": res["trivial_multiplicity"]}))
        if res["obstruction_edge"] is not None:
            # an edge reversed by its stabiliser: the lemma's hypothesis is
            # not met, which says nothing about its conclusion
            for c in checks:
                c["status"] = "skip"

    elif sub == "cage-lemma":
        action = _action_from_args(args)
        _require_relations("action", action.failed_relations())
        res = graphs.cage_trivial_multiplicity_check(action)
        checks.append(check("trivial multiplicity equals orbit count minus one",
                            res["ok"], res))

    elif sub == "double-tree":
        g = _graph_from_args(args)
        if args.xi not in _INVOLUTIONS:
            raise UsageError(f"double-tree needs --xi {' | '.join(_INVOLUTIONS)}")
        xi = _INVOLUTIONS[args.xi](g)
        dt = graphs.double_tree_decomposition(g, xi)
        checks.append(check("involution flips every simple loop", dt is not None))
        if dt is not None:
            for name, ok in dt.conclusions().items():
                checks.append(check(name.replace("_", " "), ok))
            checks.append(check(
                "fixed set recorded",
                True,
                {"fixed_vertices": sorted(map(str, dt.f_vertices)),
                 "fixed_edges": sorted(map(str, dt.f_edges)),
                 "tree_edges": len(dt.d_edges)}))

    elif sub == "collapse":
        g = _graph_from_args(args)
        names = [e for e in (args.edges or "").split(",") if e]
        ids = {str(e): e for e in g.edges}
        if not set(names) <= set(ids):
            raise UsageError(f"unknown edges {sorted(set(names) - set(ids))}")
        res = graphs.collapse(g, [ids[name] for name in names])
        checks.append(check(
            "homology map is onto", res.cycle_map.rank() == res.quotient_basis.dim,
            {"source_dim": res.source_basis.dim,
             "quotient_dim": res.quotient_basis.dim,
             "quotient_vertices": len(res.quotient.vertices),
             "quotient_edges": len(res.quotient.edges)}))

    report = make_report("graph", params, checks)
    return emit(report, args.json)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outfn",
        description="exact verification toolkit for outer automorphism "
                    "groups of free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gersten", help="finite presentation relator suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_gersten)

    p = sub.add_parser("decompose",
                       help="eigenspace decomposition and containment laws "
                            "for a supplied matrix representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("section4",
                       help="exact case tables for the double-cover "
                            "representation of the functional stabiliser")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_section4)

    p = sub.add_parser("induce",
                       help="build the induced representation, run the "
                            "relator suite and the non-factoring certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("graph", help="graph-side checks")
    p.add_argument("subaction",
                   choices=["admissible", "homology", "rose-lemma",
                            "cage-lemma", "double-tree", "collapse"])
    p.add_argument("--builtin", default=None,
                   help="rose:N | cage:N | daisy:N | cover:N | barbell")
    p.add_argument("--group", default=None,
                   help="SN | AN | WN | GN | BN | trivial")
    p.add_argument("--xi", default=None,
                   help=" | ".join(_INVOLUTIONS))
    p.add_argument("--edges", default=None, help="comma separated edge ids")
    p.add_argument("--file", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
