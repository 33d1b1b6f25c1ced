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
exact (integers or "p/q" strings).  ``--json`` and ``--out`` are opened
before any check runs, and removed again if the run raises.

Argv: ``outfn COMMAND [SUBACTION] [--OPTION VALUE | --OPTION=VALUE ...]``,
the subaction (``graph`` only) anywhere among the options.  Options are
never abbreviated and a repeated option keeps its last value.  A value
that starts with ``-`` is read as an option unless it is ``-`` alone, a
negative number or holds a space; write it ``--OPTION=VALUE``.  A bad
argv exits 2 with one ``error:`` line; ``-h`` or ``--help`` prints usage
and exits 0.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import types

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


@contextlib.contextmanager
def _output(path, *others):
    """``path`` opened for writing (None stays None), refused when one of the
    ``others`` names it; if the block raises, the file is removed again
    when regular (not /dev/stdout or a link)."""
    if path is None:
        yield None
        return
    if any(p is not None and os.path.realpath(p) == os.path.realpath(path) for p in others):
        raise UsageError(f"cannot write {path!r}: another option names the same file")
    with open(path, "w") as fh:
        try:
            yield fh
        except BaseException:
            if os.path.isfile(path) and not os.path.islink(path):
                os.remove(path)
            raise


def emit(report: dict, fh) -> int:
    for c in report["checks"]:
        print(f"[{c['status'].upper():4s}] {c['name']}")
    s = report["summary"]
    print(f"{report['command']}: {s['passed']}/{s['total']} passed, "
          f"{s['failed']} failed, {s['skipped']} skipped")
    if fh is not None:
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
    rep = words.verify_gersten(n)
    checks = []
    for fam in rep["families"]:
        details = {"tuples": fam["count"], "failures": fam["failures"]}
        if fam["failures"]:
            details["images"] = fam["images"]
        checks.append(check(f"family: {fam['name']} ({fam['count']} tuples)",
                            not fam["failures"], details))
    report = make_report("gersten", {"n": n, "jobs": args.jobs,
                                     "relators": rep["total"]}, checks)
    return emit(report, args.report)


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    rep, n, pairs = _load(args.rep, "rep", symreps.read_signed_rep)
    _require_relations("rep", rep.failed_relations())
    decomp = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
    checks = []
    table = {",".join(str(k) for k in range(1, n + 1) if label >> (k - 1) & 1) or "-":
             decomp.labels.count(label) for label in dict.fromkeys(decomp.labels)}
    checks.append(check("eigenspaces fill the space", len(decomp.labels) == rep.dim,
                        {"dims": table, "layers": list(decomp.layer_dims)}))
    div = symreps.divisibility_check(decomp)
    checks.append(check("layer dimensions divisible by binomials",
                        div["ok"], {"layers": div["layers"]}))
    for i, j in pairs:
        outside = symreps.diamond_violations(rep, decomp, i, j)
        witness = {"noncommuting": [f"e{k}" for k in outside]} if outside else None
        checks.append(check(f"diamond containment rho{i}{j}", not outside, witness))
    report = make_report("decompose", {"rep": str(args.rep), "n": n}, checks)
    return emit(report, args.report)


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
    report = make_report("section4", {"n": n}, checks)
    return emit(report, args.report)


# ---------------------------------------------------------------------------
# induce


def cmd_induce(args) -> int:
    n = args.n
    if n not in (3, 4, 5):
        raise UsageError("induction supports n in {3, 4, 5}")
    mu = None if args.mu is None else [int(p) for p in args.mu.split(",") if p.strip()]
    rep = induced.induce(n, mu)
    out_path = args.out if args.out is not None else \
        f"induced_n{n}_mu{'-'.join(map(str, rep.mu))}.json"
    with _output(out_path, args.json) as fh:
        checks = [check(f"dimension m = {rep.m}",
                        rep.m == (2 ** n - 1) * rep.dim_u,
                        {"m": rep.m, "cosets": len(rep.cosets), "dim_u": rep.dim_u})]
        for fam in rep.relator_report()["families"]:
            checks.append(check(f"relators: {fam['name']} ({fam['count']} tuples)",
                                not fam["failures"], {"failures": fam["failures"]}))
        cert = induced.check_not_factoring(rep)
        checks.append(check("non-factoring certificate",
                            cert["found"] and cert["kernel_membership"], cert))
        rep.write_json(fh)
        report = make_report("induce", {"n": n, "mu": list(rep.mu),
                                        "matrices": str(out_path)}, checks)
        return emit(report, args.report)


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


# the largest k of a builtin ``name:k``: every builtin's cost grows with k
# from a few bytes of argv, so a bound keeps it within the exit-code contract
MAX_BUILTIN_SIZE = 64


def _builtin(token: str) -> tuple:
    """``(name, k)`` of a builtin graph ``name:k``; k is 0 without a size."""
    name, colon, arg = token.partition(":")
    if name not in _GRAPHS:
        raise UsageError(f"unknown builtin graph {token!r}")
    if name == "barbell" and colon:
        raise UsageError(f"builtin graph {token!r}: barbell takes no size")
    k = int(arg or 0)
    if k > MAX_BUILTIN_SIZE:
        raise UsageError(f"builtin graph {token!r}: the size is at most {MAX_BUILTIN_SIZE}")
    return name, k


def _builtin_action(graph_token: str, group: str) -> graphs.GraphAction:
    name, k = _builtin(graph_token)
    if group.upper() == "TRIVIAL":
        return actions.trivial_action(_GRAPHS[name](k))
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
        name, k = _builtin(args.builtin)
        return _GRAPHS[name](k)
    if args.file:
        return _load(args.file, "graph",
                     lambda obj: graphs.Graph.from_json(obj.get("graph", obj)))
    raise UsageError("supply --builtin or --file")


def _action_from_args(args) -> graphs.GraphAction:
    if args.builtin:
        if not args.group:
            raise UsageError("builtin actions need --group")
        action = _builtin_action(args.builtin, args.group)
    elif args.file:
        action = _load(args.file, "action", lambda obj: graphs.action_from_json(
            graphs.Graph.from_json(obj["graph"]), obj))
    else:
        raise UsageError("supply --builtin with --group, or --file")
    _require_relations("action", action.failed_relations())
    return action


def cmd_graph(args) -> int:
    sub = args.subaction
    checks = []
    params = {"subaction": sub, "builtin": args.builtin, "group": args.group,
              "xi": args.xi, "edges": args.edges, "file": args.file}

    if sub == "admissible":
        action = _action_from_args(args)
        checks += [check(*c) for c in graphs.admissibility_conditions(action)]
        checks.append(check("admissible", all(c["status"] == "pass" for c in checks)))

    elif sub == "homology":
        g = _graph_from_args(args)
        basis = graphs.h1_basis(g)
        expected = g.rank()
        # the right number of columns, each balanced at every vertex
        checks.append(check(f"cycle space dimension = {expected}",
                            basis.cols == expected
                            and (g.incidence_matrix() * basis).is_zero(),
                            {"edges": len(g.edges), "vertices": len(g.vertices),
                             "components": g.component_count(), "dim": basis.cols}))

    elif sub == "rose-lemma":
        action = _action_from_args(args)
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
        quotient, cycle_map = graphs.collapse(g, [ids[name] for name in names])
        checks.append(check(
            "homology map is onto", cycle_map.rank() == cycle_map.rows,
            {"source_dim": cycle_map.cols, "quotient_dim": cycle_map.rows,
             "quotient_vertices": len(quotient.vertices),
             "quotient_edges": len(quotient.edges)}))

    report = make_report("graph", params, checks)
    return emit(report, args.report)


# ---------------------------------------------------------------------------
# entry point


# command -> (help, {option: (type, default, help)}, subaction choices).
# ``--name VALUE`` or ``--name=VALUE`` sets the attribute ``name``; an
# option whose default is ``_REQUIRED`` must be given.  ``main`` runs the
# module's ``cmd_<command>`` as found at call time, like the tables above.
_REQUIRED = object()
_JSON = {"json": (str, None, "")}
_COMMANDS = {
    "gersten": ("finite presentation relator suite",
                {"n": (int, _REQUIRED, ""),
                 "jobs": (int, 1, "accepted and recorded; relators are "
                                  "always checked in process"),
                 **_JSON}, ()),
    "decompose": ("eigenspace decomposition and containment laws "
                  "for a supplied matrix representation",
                  {"rep": (str, _REQUIRED, ""), **_JSON}, ()),
    "section4": ("exact case tables for the double-cover "
                 "representation of the functional stabiliser",
                 {"n": (int, _REQUIRED, ""), **_JSON}, ()),
    "induce": ("build the induced representation, run the "
               "relator suite and the non-factoring certificate",
               {"n": (int, _REQUIRED, ""), "mu": (str, None, ""),
                "out": (str, None, ""), **_JSON}, ()),
    "graph": ("graph-side checks",
              {"builtin": (str, None, "rose:N | cage:N | daisy:N | cover:N | barbell"),
               "group": (str, None, "SN | AN | WN | GN | BN | trivial"),
               "xi": (str, None, " | ".join(_INVOLUTIONS)),
               "edges": (str, None, "comma separated edge ids"),
               "file": (str, None, ""), **_JSON},
              ("admissible", "homology", "rose-lemma", "cage-lemma",
               "double-tree", "collapse")),
}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_option(token: str, options: dict) -> bool:
    """An option, not a value: a value may start with ``-`` when it is
    ``-`` alone, a negative number, or holds a space."""
    head = token.partition("=")[0]
    return (head[:2] == "--" and head[2:] in options) or (
        token[:1] == "-" and len(token) > 1 and " " not in token
        and not _NEGATIVE_NUMBER.match(token))


def _usage(command) -> int:
    """Print how to call ``command``, or list the commands when it is None."""
    if command is None:
        head = "COMMAND"
        text = "exact verification toolkit for outer automorphism groups of free groups"
        rows = [(name, about) for name, (about, _, _) in _COMMANDS.items()]
    else:
        text, options, choices = _COMMANDS[command]
        head = f"{command} ({' | '.join(choices)})" if choices else command
        rows = [(f"--{name} {kind.__name__.upper()}", "(required) " * (default is _REQUIRED) + about)
                for name, (kind, default, about) in options.items()]
    print(f"usage: outfn {head} [--OPTION VALUE | --OPTION=VALUE ...]\n\n{text}\n")
    print("\n".join(f"  {left:14s} {right}".rstrip() for left, right in rows))
    return 0


def parse_args(argv: list) -> types.SimpleNamespace:
    """The namespace ``argv`` asks for, whose ``func`` runs the command
    (``-h`` or ``--help``: prints usage).  Options are never abbreviated,
    and a repeated option keeps its last value."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return types.SimpleNamespace(func=lambda _: _usage(None))
    if command not in _COMMANDS:
        raise UsageError(f"expected a command: {' | '.join(_COMMANDS)}"
                         + (f", not {command!r}" if argv else ""))
    _, options, choices = _COMMANDS[command]
    args = {name: default for name, (_, default, _) in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        head, eq, value = token.partition("=")
        name = head[2:]
        if head[:2] == "--" and name in options:
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value, options):
                    raise UsageError(f"{command}: --{name} needs a value")
            try:
                args[name] = options[name][0](value)
            except ValueError:
                raise UsageError(f"{command}: --{name} takes an integer, not {value!r}")
        elif token in ("-h", "--help"):
            return types.SimpleNamespace(func=lambda _: _usage(command))
        elif _is_option(token, options):
            raise UsageError(f"{command}: unknown option {token!r}")
        elif token in choices and "subaction" not in args:
            args["subaction"] = token
        else:
            raise UsageError(f"{command}: unexpected argument {token!r}"
                             + (f", expected {' | '.join(choices)}" if choices else ""))
    missing = ["SUBACTION"] if choices and "subaction" not in args else []
    missing += [f"--{name}" for name, value in args.items() if value is _REQUIRED]
    if missing:
        raise UsageError(f"{command} needs {' and '.join(missing)}")
    return types.SimpleNamespace(command=command, func=globals()["cmd_" + command], **args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        with _output(*(getattr(args, k, None) for k in ("json", "rep", "file"))) as args.report:
            return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
