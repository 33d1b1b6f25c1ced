"""Batch verification harness.

Every check is a subcommand emitting a JSON report with a fixed shape:
command, parameters, a list of named checks with pass/fail/skip status,
and summary counts.  Exit codes: 0 when every check passes, 1 when some
check fails, 2 on usage or input errors.  Reports contain no
timestamps, so identical invocations produce byte-identical output; all
numbers are exact (integers or "p/q" strings).
"""

from __future__ import annotations

import argparse
import json
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


# ---------------------------------------------------------------------------
# gersten


def cmd_gersten(args) -> int:
    n = args.n
    if not 3 <= n <= 8:
        raise UsageError("presentation checks support 3 <= n <= 8")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    rep = words.verify_gersten(n, jobs=args.jobs)
    checks = [
        check(f"family: {fam['name']} ({fam['count']} tuples)",
              not fam["failures"],
              {"tuples": fam["count"], "failures": fam["failures"]})
        for fam in rep["families"]
    ]
    report = make_report("gersten", {"n": n, "jobs": args.jobs,
                                     "relators": rep["total"]}, checks)
    return emit(report, args.json)


# ---------------------------------------------------------------------------
# decompose


def _load_rep(path) -> symreps.FiniteRep:
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return symreps.FiniteRep.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read rep file: {exc}")


def _signed_rank(rep: symreps.FiniteRep) -> int:
    names = rep.generators
    n_e = sum(1 for name in names if name.startswith("e") and name[1:].isdigit())
    n_s = sum(1 for name in names if name.startswith("s") and name[1:].isdigit())
    if n_e > 1:
        return n_e
    if n_e == 1 and n_s >= 1:
        return n_s + 1
    raise UsageError("rep must supply e1..en, or e1 plus the adjacent swaps")


def cmd_decompose(args) -> int:
    rep = _load_rep(args.rep)
    failed = rep.failed_relations()
    if failed:
        raise UsageError(f"rep fails {len(failed)} defining relation(s)")
    n = _signed_rank(rep)
    try:
        invs = symreps.involution_family(rep, n)
        decomp = symreps.simultaneous_eigenspaces(invs)
    except ValueError as exc:
        raise UsageError(str(exc))
    checks = []
    table = {
        ",".join(map(str, sorted(subset))) or "-": space.dim
        for subset, space in decomp.spaces.items() if space.dim
    }
    checks.append(check("eigenspaces fill the space",
                        decomp.total_dim() == rep.dim,
                        {"dims": table, "layers": list(decomp.layer_dims)}))
    div = symreps.divisibility_check(decomp)
    checks.append(check("layer dimensions divisible by binomials",
                        div["ok"], {"layers": div["layers"]}))
    rho_pairs = []
    for name in rep.generators:
        if name.startswith("rho") and len(name) == 5 and name[3:].isdigit():
            rho_pairs.append((int(name[3]), int(name[4])))
    for i, j in sorted(rho_pairs):
        ok = symreps.check_diamond(rep, decomp, i, j)
        checks.append(check(f"diamond containment rho{i}{j}", ok))
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
        (c["name"].split(" i=")[0], c["name"], c["ok"]) for c in rep["checks"])
    checks = [
        check(f"{fam['name']} ({fam['count']} cases)", not fam["failures"],
              {"failures": fam["failures"]})
        for fam in families
    ]
    plus, minus = cover.deck_eigenspace_dims(n)
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
    parts = tuple(int(p) for p in text.split(",") if p.strip())
    if parts not in ((1, 1), (2,)):
        raise UsageError("mu must be 1,1 or 2")
    return parts


def cmd_induce(args) -> int:
    n = args.n
    if n not in (3, 4, 5):
        raise UsageError("induction supports n in {3, 4, 5}")
    mu = _parse_mu(args.mu)
    try:
        rep = induced.induce(n, mu)
    except ValueError as exc:
        raise UsageError(str(exc))
    checks = [check(f"dimension m = {rep.m}",
                    rep.m == (2 ** n - 1) * rep.dim_u,
                    {"m": rep.m, "cosets": len(rep.cosets), "dim_u": rep.dim_u})]
    relators = rep.relator_report()
    for fam in relators["families"]:
        checks.append(check(f"relators: {fam['name']} ({fam['count']} tuples)",
                            not fam["failures"], {"failures": fam["failures"]}))
    cert = induced.check_not_factoring(rep)
    details = {k: v for k, v in cert.items() if k != "scanned"}
    checks.append(check("non-factoring certificate", cert["found"], details))
    out_path = args.out or f"induced_n{n}_mu{'-'.join(map(str, rep.mu))}.json"
    with open(out_path, "w") as fh:
        json.dump(rep.to_json(), fh)
        fh.write("\n")
    report = make_report("induce", {"n": n, "mu": list(rep.mu),
                                    "matrices": str(out_path)}, checks)
    return emit(report, args.json)


# ---------------------------------------------------------------------------
# graph


def _builtin_graph(token: str) -> graphs.Graph:
    name, _, arg = token.partition(":")
    try:
        k = int(arg) if arg else None
        if name == "rose":
            return graphs.rose(k)
        if name == "cage":
            return graphs.cage(k)
        if name == "daisy":
            return graphs.daisy_chain(k)
        if name == "cover":
            return graphs.cover_of_rose(k)
        if name == "barbell":
            return graphs.barbell()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad builtin graph {token!r}: {exc}")
    raise UsageError(f"unknown builtin graph {token!r}")


def _builtin_action(graph_token: str, group: str) -> graphs.GraphAction:
    name, _, arg = graph_token.partition(":")
    g = group.upper()
    try:
        k = int(arg) if arg else 0
        if g == "TRIVIAL":
            return actions.trivial_action(_builtin_graph(graph_token))
        if name == "rose":
            if g == f"S{k}":
                return actions.symmetric_rose(k)
            if g == f"A{k}":
                return actions.alternating_rose(k)
            if g == f"W{k}":
                return actions.signed_rose(k)
        if name == "cage":
            if g == f"S{k}":
                return actions.symmetric_cage(k)
            if g == f"A{k}":
                return actions.alternating_cage(k)
            if g == f"G{k-1}":
                return actions.cage_full(k)
            if g == f"B{k-1}":
                return actions.cage_central_alternating(k)
    except ValueError as exc:
        raise UsageError(str(exc))
    raise UsageError(f"no builtin action of {group!r} on {graph_token!r}")


def _builtin_xi(graph: graphs.Graph, name: str) -> graphs.GraphAut:
    try:
        if name == "vertex-swap":
            return actions.vertex_swap(graph)
        if name == "strand-swap":
            return actions.strand_swap(graph)
        if name == "flip-all":
            return actions.petal_flip_involution(graph)
        if name == "def57":
            n = len(graph.edges) - 1
            return actions.parity_involution(n)
    except ValueError as exc:
        raise UsageError(str(exc))
    raise UsageError(f"unknown involution {name!r}")


def _graph_from_args(args) -> graphs.Graph:
    if args.builtin:
        return _builtin_graph(args.builtin)
    if args.file:
        try:
            with open(args.file) as fh:
                obj = json.load(fh)
            return graphs.Graph.from_json(obj.get("graph", obj))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"cannot read graph file: {exc}")
    raise UsageError("supply --builtin or --file")


def _action_from_args(args) -> graphs.GraphAction:
    if args.builtin:
        if not args.group:
            raise UsageError("builtin actions need --group")
        return _builtin_action(args.builtin, args.group)
    if args.file:
        try:
            with open(args.file) as fh:
                obj = json.load(fh)
            g = graphs.Graph.from_json(obj["graph"])
            return graphs.action_from_json(g, obj)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"cannot read action file: {exc}")
    raise UsageError("supply --builtin with --group, or --file")


def cmd_graph(args) -> int:
    sub = args.subaction
    checks = []
    params = {"subaction": sub, "builtin": args.builtin, "group": args.group,
              "xi": args.xi, "file": args.file}

    if sub == "admissible":
        action = _action_from_args(args)
        failed = action.failed_relations()
        if failed:
            raise UsageError(f"action fails {len(failed)} defining relation(s)")
        g = action.graph
        checks.append(check("graph is connected", g.is_connected()))
        checks.append(check("no valence-2 vertices",
                            all(g.valence(v) != 2 for v in g.vertices),
                            {"valences": {str(v): g.valence(v) for v in g.vertices}}))
        forests = graphs.invariant_forests(action)
        checks.append(check("no invariant nontrivial forest", not forests,
                            {"forests": [list(map(str, f)) for f in forests]}))
        checks.append(check("admissible", graphs.is_admissible(action)))

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
        if action.failed_relations():
            raise UsageError("action fails its defining relations")
        try:
            res = graphs.invariant_orientation(action)
        except ValueError as exc:
            raise UsageError(str(exc))
        checks.append(check("invariant orientation exists",
                            res["orientation"] is not None,
                            {"obstruction_edge": str(res["obstruction_edge"])}))
        checks.append(check(
            "trivial multiplicity equals orbit count", res["counts_match"],
            {"orbit_count": res["orbit_count"],
             "trivial_multiplicity": res["trivial_multiplicity"]}))

    elif sub == "cage-lemma":
        action = _action_from_args(args)
        try:
            res = graphs.cage_trivial_multiplicity_check(action)
        except ValueError as exc:
            raise UsageError(str(exc))
        checks.append(check("trivial multiplicity equals orbit count minus one",
                            res["ok"], res))

    elif sub == "double-tree":
        g = _graph_from_args(args)
        if not args.xi:
            raise UsageError("double-tree needs --xi")
        xi = _builtin_xi(g, args.xi)
        try:
            flips = graphs.flips_all_simple_loops(g, xi)
        except ValueError as exc:
            raise UsageError(str(exc))
        checks.append(check("involution flips every simple loop", flips))
        if flips:
            dt = graphs.double_tree_decomposition(g, xi)
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
        subset = [e for e in (args.edges or "").split(",") if e]
        known = set(map(str, g.edges))
        if not set(subset) <= known:
            raise UsageError(f"unknown edges {sorted(set(subset) - known)}")
        res = graphs.collapse(g, subset)
        checks.append(check(
            "homology map is onto", res.cycle_map.rank() == res.quotient_basis.dim,
            {"source_dim": res.source_basis.dim,
             "quotient_dim": res.quotient_basis.dim,
             "quotient_vertices": len(res.quotient.vertices),
             "quotient_edges": len(res.quotient.edges)}))

    else:
        raise UsageError(f"unknown graph subaction {sub!r}")

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
                   help="vertex-swap | strand-swap | flip-all | def57")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
