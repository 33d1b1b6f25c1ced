"""Per-layer tracing of ``outfn`` from outside its source.

``Tracer.install()`` replaces every public function and method of the
layer modules with a wrapper, at every binding that holds it (so names
imported with ``from .words import ...`` into ``cover`` and ``induced``
are covered too), and ``Tracer.restore()`` puts the originals back.
Wrappers pass arguments and return values through untouched.

Most wrappers record a span (name, start, end, parent) in memory.  The
hot leaves of the word algebra and of graph automorphisms, called up to
millions of times per workload, only count calls: their time stays in
the self time of the span that called them.  Spans are written out as
JSON lines when the run ends.

``layer_metrics`` turns spans and counts into the per-layer metrics
listed in ``PER_LAYER``; self time of a span is its duration minus the
durations of its direct children, so the layer self times add up to the
time spent inside the outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("words", "linalg", "symreps", "graphs", "actions", "cover",
          "induced", "cli")

# Called so often that a span per call would dominate the traced run.
COUNT_ONLY = frozenset({
    "words.Word.__mul__", "words.Word.inverse", "words.Word.is_identity",
    "words.Word.to_json", "words.reduce_word", "words.empty_word",
    "words.generator_word", "words.conjugate_word",
    "words.Endomorphism.apply", "words.Endomorphism.fixes_generators",
    "words.compose", "words.Automorphism", "words.Automorphism.apply",
    "words.Automorphism.inverse", "words.Automorphism.__mul__",
    "words.Automorphism.is_identity",
    "cover.rewrite_in_kernel",
    "graphs.Graph.iota", "graphs.Graph.tau", "graphs.Graph.is_loop",
    "graphs.GraphAut.__mul__", "graphs.GraphAut.flip", "graphs.GraphAut.key",
    "linalg.Matrix.row", "linalg.Matrix.col",
})

# Dunder methods that are layer operations; every other dunder is skipped.
OPERATORS = ("__mul__",)

# Certification of an automorphism happens in the dataclass hook; the
# traced name is the class, so ``words.Automorphism.calls`` counts them.
EXTRA = {("words", "Automorphism", "__post_init__"): "words.Automorphism"}

P, I, G, D = "presentation", "induction", "graph-lemmas", "decomposition"


def _metric(name, unit, moves, *workloads):
    """A per-layer metric, with the end-to-end metric and workloads it should move."""
    return {"name": name, "unit": unit, "better": "lower",
            "moves": f"{moves} on {', '.join(workloads)}"}


def _timed(name, moves, *workloads):
    return [_metric(f"{name}.s", "s", moves, *workloads),
            _metric(f"{name}.calls", "count", moves, *workloads)]


PER_LAYER = [
    *_timed("words.relator_automorphism", "wall_s", P, I),
    *_timed("words.compose_automorphisms", "wall_s", P, I),
    _metric("words.compose.calls", "count", "wall_s", P, I),
    _metric("words.Automorphism.calls", "count", "wall_s", P, I),
    *_timed("words.is_inner", "wall_s", P),
    _metric("words.Endomorphism.apply.calls", "count", "wall_s", P, I),
    _metric("words.max_word_len", "letters", "wall_s", P, I),
    _metric("words.compose_per_product", "ratio", "wall_s", P, I),
    *_timed("induced.induce", "wall_s", I),
    *_timed("induced.InducedRep.block_of", "wall_s", I),
    *_timed("induced.BlockMatrix.__mul__", "wall_s", I),
    _metric("induced.blocks_multiplied", "count", "wall_s", I),
    *_timed("induced.InducedRep.relator_report", "wall_s", I),
    *_timed("induced.check_not_factoring", "wall_s", I),
    *_timed("induced.InducedRep.to_json", "peak_rss_mb", I),
    *_timed("cover.minus_grid", "wall_s", I),
    _metric("cover.rewrite_in_kernel.calls", "count", "wall_s", I),
    *_timed("linalg.Matrix.__mul__", "wall_s", G, D),
    *_timed("linalg.Matrix.solve", "wall_s", G, D),
    *_timed("linalg.Matrix.rref", "wall_s", G, D),
    *_timed("linalg.Matrix.apply", "wall_s", G, D),
    *_timed("linalg.Matrix.kernel_basis", "wall_s", D),
    *_timed("linalg.Matrix.determinant", "wall_s", D),
    *_timed("linalg.Matrix.to_json", "wall_s", I),
    _metric("linalg.max_entry_bits", "bits", "wall_s", G, D),
    *_timed("graphs.GraphAction.elements", "wall_s", G),
    _metric("graphs.elements_enumerated", "count", "wall_s", G),
    *_timed("graphs.trivial_multiplicity", "wall_s", G),
    *_timed("graphs.induced_matrix", "wall_s", G),
    *_timed("graphs.simple_loops", "wall_s", G),
    _metric("graphs.loops_enumerated", "count", "wall_s", G),
    *_timed("graphs.flips_all_simple_loops", "wall_s", G),
    *_timed("graphs.double_tree_decomposition", "wall_s", G),
    _metric("graphs.GraphAut.__mul__.calls", "count", "wall_s", G),
    *_timed("symreps.FiniteRep.failed_relations", "wall_s", D),
    *_timed("symreps.simultaneous_eigenspaces", "wall_s", D),
    *_timed("symreps.diamond_violations", "wall_s", D),
    *_timed("symreps.span_union", "wall_s", D),
    _metric("actions.s", "s", "wall_s", G),
    _metric("cli.main.s", "s", "wall_s", P, I, G, D),
    _metric("cli.emit.s", "s", "wall_s", I),
    _metric("words.self_s", "s", "wall_s", P, I),
    _metric("linalg.self_s", "s", "wall_s", G, D, I),
    _metric("symreps.self_s", "s", "wall_s", D),
    _metric("graphs.self_s", "s", "wall_s", G),
    _metric("actions.self_s", "s", "wall_s", G),
    _metric("cover.self_s", "s", "wall_s", I),
    _metric("induced.self_s", "s", "wall_s", I),
    _metric("cli.self_s", "s", "wall_s", I),
    _metric("trace.harness_s", "s", "wall_s", P, I, G, D),
    _metric("trace.overhead_ratio", "ratio", "wall_s", P, I, G, D),
]


def _entry_bits(matrix) -> int:
    if matrix is None:
        return 0
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in matrix.data for x in row), default=0)


class Tracer:
    """Spans and counts for one traced run of the ``outfn`` layers."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"outfn.{layer}")
                        for layer in LAYERS}
        self.names: list = []          # name of each wrapped callable
        self.calls: list = []          # call count, parallel to names
        self.spans: list = []          # [name index, start, end, parent]
        self.stack = [-1]
        self.counters = {"words.max_word_len": 0, "induced.blocks_multiplied": 0,
                         "linalg.max_entry_bits": 0,
                         "graphs.elements_enumerated": 0,
                         "graphs.loops_enumerated": 0}
        self._patched: list = []       # (owner, attribute, original, had_own)

    # -- what gets wrapped ----------------------------------------------

    def targets(self):
        """Yield ``(traced name, owner class or None, attribute, function)``."""
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", None, attr, obj
                elif inspect.isclass(obj):
                    for name, member in vars(obj).items():
                        if name.startswith("_") and name not in OPERATORS:
                            continue
                        if isinstance(member, classmethod) or inspect.isfunction(member):
                            yield f"{layer}.{attr}.{name}", obj, name, member
        for (layer, cls, name), traced in EXTRA.items():
            owner = getattr(self.modules[layer], cls)
            yield traced, owner, name, vars(owner)[name]

    # -- wrappers -------------------------------------------------------

    def _hook(self, traced):
        c = self.counters
        if traced == "words.compose":
            def hook(args, result):
                longest = max((len(w.letters) for w in result.images), default=0)
                if longest > c["words.max_word_len"]:
                    c["words.max_word_len"] = longest
        elif traced == "induced.BlockMatrix.__mul__":
            def hook(args, result):
                c["induced.blocks_multiplied"] += args[0].size
        elif traced in ("linalg.Matrix.solve", "linalg.Matrix.kernel_basis"):
            def hook(args, result):
                bits = _entry_bits(result)
                if bits > c["linalg.max_entry_bits"]:
                    c["linalg.max_entry_bits"] = bits
        elif traced == "graphs.GraphAction.elements":
            def hook(args, result):
                c["graphs.elements_enumerated"] += len(result)
        elif traced == "graphs.simple_loops":
            def hook(args, result):
                c["graphs.loops_enumerated"] += len(result)
        else:
            hook = None
        return hook

    def _wrap(self, traced, fn):
        index = len(self.names)
        self.names.append(traced)
        self.calls.append(0)
        calls, spans, stack, clock = self.calls, self.spans, self.stack, time.perf_counter
        hook = self._hook(traced)
        if traced in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            def counted(*args, **kwargs):
                calls[index] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            wrapper = counted
        else:
            def spanned(*args, **kwargs):
                calls[index] += 1
                i = len(spans)
                span = [index, 0.0, 0.0, stack[-1]]
                spans.append(span)
                stack.append(i)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if hook is not None:
                    hook(args, result)
                return result
            wrapper = spanned
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _patch(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for traced, owner, attr, member in list(self.targets()):
            if owner is not None:
                if isinstance(member, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(traced, member.__func__)))
                else:
                    self._patch(owner, attr, self._wrap(traced, member))
                continue
            wrapper = self._wrap(traced, member)
            for mod in self.modules.values():
                for name, value in list(vars(mod).items()):
                    if value is member:
                        self._patch(mod, name, wrapper)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------

    def dump(self, spans_path, wall_s: float) -> dict:
        """Write spans as JSON lines; return calls, counters and wall time."""
        with open(spans_path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": self.names[name], "start": start,
                                     "end": end, "parent": parent}) + "\n")
        return {"calls": dict(zip(self.names, self.calls)),
                "counters": dict(self.counters), "wall_s": wall_s}


def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list, summary: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced sample, keyed as in ``PER_LAYER``."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    inclusive: dict = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    actions_s = outer_s = 0.0
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        layer = s["name"].split(".", 1)[0]
        inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + duration
        self_s[layer] += duration - child_time[i]
        parent_layer = (spans[s["parent"]]["name"].split(".", 1)[0]
                        if s["parent"] >= 0 else None)
        if layer == "actions" and parent_layer != "actions":
            actions_s += duration
        if s["parent"] < 0:
            outer_s += duration
    calls = summary["calls"]
    values = dict(summary["counters"])
    for m in PER_LAYER:
        name = m["name"]
        if name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_s[name[:-len(".self_s")]]
        elif name.endswith(".s") and name != "actions.s":
            values[name] = inclusive.get(name[:-len(".s")], 0.0)
    products = calls.get("words.compose_automorphisms", 0)
    values["words.compose_per_product"] = (
        calls.get("words.compose", 0) / products if products else 0.0)
    values["actions.s"] = actions_s
    wall = summary["wall_s"]
    values["trace.harness_s"] = wall - outer_s
    values["trace.overhead_ratio"] = wall / untraced_wall_s
    return {m["name"]: values[m["name"]] for m in PER_LAYER}
