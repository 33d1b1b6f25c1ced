"""The outfn benchmark: time each certificate end to end, or per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload presentation --seed 1 --seconds 30 --trace 0

``--workload`` is one of presentation, induction, graph-lemmas,
decomposition, or ``all`` (the default) to run the four in turn.

Each sample runs the workload's ``outfn`` CLI invocations through
``outfn.cli.main`` in a fresh child process pinned to one CPU, with
``--jobs 1``, importing ``outfn`` from ``src/`` of this checkout.
Set-up, the interpreter start plus ``import outfn.cli``, is timed on
its own.  The run repeats rounds of a set-up and a sample, with a host
probe before the first round and after each, until the next round
would overrun ``--seconds``, counted from the start of the run (at
least one round is taken).

Timings are in seconds at reference speed.  The host probe
(``probe.py``) is a fixed pure-Python kernel that does not use
``outfn``; the mean of the probes on either side of a round, over
``probe.REFERENCE_S``, is how much the shared host slowed that round.
Each timing (``wall_s``, ``cpu_s``, ``setup_s``) is the median over the
rounds of its time divided by the round's slowness.  The raw medians,
the raw wall-time quartiles and the host slowness are printed too, as
comment lines.

Every sample is checked: each CLI exit code is 0, each ``--json`` report
has all checks passing, the workload's expected values hold (see
``workloads.py``), and reports and output files are byte-identical to
the first sample's.  A failed or missing check counts in
``check_fail_ratio``; any failure makes the exit code 1.

With ``--trace 1`` the run alternates an untraced and a traced sample
(see ``tracer.py``) and reports the per-layer metrics instead, medians
over the traced samples; times among them are at reference speed too.  The traced reports must equal the untraced
ones byte for byte, and the layer self times plus the harness remainder
must add up to the traced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files live under
``.perfbench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import probe       # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"), ("cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("OUTFN_MAX_EDGES", None)
    return env


def time_setup(cwd: str) -> float:
    """Wall time of a fresh interpreter that imports ``outfn.cli``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import outfn.cli"], cwd=cwd,
                   env=child_env(), check=True)
    return time.perf_counter() - start


def run_child(w: workloads.Workload, trace: bool, tag: str) -> dict:
    """One sample in a fresh child; returns the child's result plus rusage."""
    request = {"src": SRC, "cwd": w.workdir, "argvs": w.argvs, "trace": trace,
               "result": os.path.join(w.workdir, f"result-{tag}.json"),
               "spans": os.path.join(w.workdir, f"spans-{tag}.jsonl")}
    request_path = os.path.join(w.workdir, f"request-{tag}.json")
    with open(request_path, "w") as fh:
        json.dump(request, fh)
    for name in workloads.output_files(w):
        if os.path.exists(w.path(name)):
            os.remove(w.path(name))
    stderr_path = os.path.join(w.workdir, f"stderr-{tag}.txt")
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), request_path],
            stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=w.workdir)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"codes": [], "wall_s": None}
    if proc.returncode == 0:
        with open(request["result"]) as fh:
            result = json.load(fh)
        if result["outfn"] != os.path.join(SRC, "outfn", "cli.py"):
            print(f"outfn imported from {result['outfn']}, not {SRC}",
                  file=sys.stderr)
            result["codes"] = []
    else:
        with open(stderr_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["spans_path"] = request["spans"]
    result["digests"] = {}
    for name in workloads.output_files(w):
        if os.path.exists(w.path(name)):
            with open(w.path(name), "rb") as fh:
                result["digests"][name] = hashlib.sha256(fh.read()).hexdigest()
    return result


class Ledger:
    """Checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def sample(self, w: workloads.Workload, result: dict, reference: dict | None) -> None:
        for name, ok in workloads.check_sample(w, result["codes"]):
            self.add(name, ok)
        if reference is not None:
            for name in workloads.output_files(w):
                self.add(f"byte-identical: {name}",
                         name in result["digests"]
                         and result["digests"][name] == reference["digests"].get(name))


def measure(w: workloads.Workload, seconds: float, trace: bool, ledger: Ledger) -> dict:
    """Rounds until the next would overrun ``seconds``; returns metrics.

    A round is one set-up and one sample (and with ``trace`` a traced
    sample), all on the CPU the children are pinned to, and the host
    probe runs before the first round and after each.  A round's host
    slowness is the mean of the probes on either side of it over
    ``probe.REFERENCE_S``; each timing is the median over the rounds of
    the round's time divided by its slowness.  Pairing each round with
    the probes next to it cancels the bursts of a neighbour's load that
    a run-wide correction would miss.
    """
    start = time.perf_counter()
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        with probe.HostProbe(min(affinity)) as host:
            for _ in range(2):   # fill bytecode caches; users do not pay that per run
                time_setup(w.workdir)
            probes, rounds = sample_rounds(w, host, start, seconds, trace, ledger)
    finally:
        os.sched_setaffinity(0, affinity)
    for r, before, after in zip(rounds, probes, probes[1:]):
        r["slowness"] = (before + after) / 2 / probe.REFERENCE_S
    host = {"probe_s": statistics.median(probes),
            "slowness": statistics.median(r["slowness"] for r in rounds)}
    if trace:
        traced = [r for r in rounds if r["layers"] is not None]
        if not traced:
            return {}
        metrics = {}
        for m in tracer.PER_LAYER:
            scale = (lambda r: r["slowness"]) if m["unit"] == "s" else (lambda r: 1.0)
            value = statistics.median(r["layers"][m["name"]] / scale(r) for r in traced)
            metrics[m["name"]] = (value, m["unit"])
        return {"metrics": metrics, "samples": len(traced), "host": host}
    done = [r for r in rounds if r["plain"]["wall_s"] is not None]
    if not done:
        return {}
    times = {"wall_s": [r["plain"]["wall_s"] for r in done],
             "cpu_s": [r["plain"]["cpu_s"] for r in done],
             "setup_s": [r["setup_s"] for r in done]}
    values = {k: statistics.median(t / r["slowness"] for t, r in zip(v, done))
              for k, v in times.items()}
    values["items_per_s"] = w.items / values["wall_s"]
    values["peak_rss_mb"] = statistics.median(r["plain"]["peak_rss_mb"] for r in done)
    return {"metrics": {name: (values[name], unit) for name, unit in END_TO_END},
            "samples": len(done), "host": host,
            "raw": {k: statistics.median(v) for k, v in times.items()},
            "walls": times["wall_s"]}


def sample_rounds(w: workloads.Workload, host: probe.HostProbe, start: float,
                  seconds: float, trace: bool, ledger: Ledger) -> tuple:
    """Rounds until the next would overrun ``seconds``; returns the probe
    times, one more than the rounds, and the rounds."""
    probes, rounds = [host.time()], []
    reference = None
    longest = 0.0
    while True:
        began = time.perf_counter()
        r = {"setup_s": time_setup(w.workdir), "layers": None}
        r["plain"] = result = run_child(w, False, f"plain{len(rounds)}")
        ledger.sample(w, result, reference)
        reference = reference or result
        if trace and result["wall_s"] is not None:
            traced_result = run_child(w, True, f"traced{len(rounds)}")
            ledger.sample(w, traced_result, reference)
            if traced_result["wall_s"] is not None:
                spans = tracer.read_spans(traced_result["spans_path"])
                values = tracer.layer_metrics(spans, traced_result["trace"],
                                              result["wall_s"])
                parts = sum(v for k, v in values.items() if k.endswith(".self_s"))
                parts += values["trace.harness_s"]
                ledger.add("layer self times add up to the traced wall",
                           abs(parts - traced_result["wall_s"])
                           <= 1e-6 * traced_result["wall_s"])
                r["layers"] = values
        probes.append(host.time())
        rounds.append(r)
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return probes, rounds


def _basis(unit: str, samples: int, trace: bool, setup: bool) -> str:
    speed = ", at reference speed" if unit == "s" else ""
    if trace:
        return f"median of {samples} traced samples{speed}"
    if unit == "1/s":
        return "items over wall_s"
    return f"median of {samples} {'set-ups' if setup else 'samples'}{speed}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    scratch = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(scratch, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    ledger = Ledger()
    try:
        w = workloads.build(name, seed, workdir)
        out = measure(w, seconds, trace, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    if not out:
        ledger.add("at least one sample completed", False)
    notes = workloads.NOTES[name]
    print(f"# {name}: {w.items} {notes['unit']}; argv: "
          + " ; ".join(" ".join(a) for a in w.argvs))
    print(f"# loads {notes['loads']}; bypasses {notes['bypasses']}; "
          f"seed {notes['seed']}")
    for metric, (value, unit) in out.get("metrics", {}).items():
        print(f"{name:14s} {metric:42s} {value:14.6f} {unit:8s} "
              + _basis(unit, out["samples"], trace, metric == "setup_s"))
    if "host" in out:
        print(f"# {name}: host probe median {out['host']['probe_s']:.5f} s, slowness "
              f"median {out['host']['slowness']:.3f} against {probe.REFERENCE_S} s")
    if "raw" in out:
        walls = out["walls"]
        lo, mid, hi = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        print(f"# {name}: raw medians: wall {out['raw']['wall_s']:.4f} s, "
              f"cpu {out['raw']['cpu_s']:.4f} s, setup {out['raw']['setup_s']:.4f} s")
        print(f"# {name}: raw wall over {len(walls)} samples: min {min(walls):.4f}"
              f" q1 {lo:.4f} median {mid:.4f} q3 {hi:.4f} max {max(walls):.4f}")
    ratio = len(ledger.failed) / ledger.attempted
    print(f"{name:14s} {'check_fail_ratio':42s} {ratio:14.6f} {'ratio':8s} "
          f"{len(ledger.failed)} of {ledger.attempted} checks failed")
    for failure in ledger.failed[:20]:
        print(f"{name:14s} FAILED {failure}")
    return out.get("metrics", {}), ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "outfn", "cli.py")):
        print(f"error: no outfn sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, ledger = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        attempted += ledger.attempted
        failed += len(ledger.failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
