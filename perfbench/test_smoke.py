"""Smoke test of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the root of
a source checkout.  Uses ``gersten --n 3``, ``induce --n 3``, A5 on the
5-cage, the 5-cage double tree, and the W4 exterior square.
"""

from __future__ import annotations

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe      # noqa: E402
import run        # noqa: E402
import tracer     # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)


def _measure(name, tmp_path, trace=False, seed=5, **expect):
    w = workloads.build(name, seed, str(tmp_path), workloads.TINY[name])
    w.expect.update(expect)
    ledger = run.Ledger()
    out = run.measure(w, 0.0, trace, ledger)
    return out, ledger


@pytest.mark.parametrize("name", workloads.NAMES)
def test_check_fail_ratio_is_zero(name, tmp_path):
    out, ledger = _measure(name, tmp_path)
    assert ledger.failed == [] and ledger.attempted > 0
    assert set(out["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(value > 0 for value, _ in out["metrics"].values())


def test_wrong_expected_value_is_caught(tmp_path):
    wrong = workloads.gersten_relator_count(3) + 1
    _, ledger = _measure("presentation", tmp_path, relators=wrong)
    assert "relator count" in ledger.failed


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    out, ledger = _measure(name, tmp_path, trace=True)
    assert ledger.failed == []
    assert [*out["metrics"]] == [m["name"] for m in tracer.PER_LAYER]


def _bindings(t: tracer.Tracer) -> dict:
    out = {}
    for layer, mod in t.modules.items():
        out.update({(layer, k): v for k, v in vars(mod).items()})
        for k, cls in vars(mod).items():
            if inspect.isclass(cls):
                out.update({(layer, k, a): v for a, v in vars(cls).items()})
    return out


def test_wrappers_cover_every_binding_and_are_restored(tmp_path, monkeypatch):
    import outfn.cli
    from outfn import cover, induced, words

    t = tracer.Tracer()
    before = _bindings(t)
    original = words.rho
    monkeypatch.chdir(tmp_path)
    t.install()
    try:
        for mod in (words, cover, induced):
            assert mod.rho is not original
            assert mod.rho.__wrapped__ is original
        assert outfn.cli.main(["gersten", "--n", "3", "--json", "g.json"]) == 0
    finally:
        t.restore()
    after = _bindings(t)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert t.calls[t.names.index("words.relator_automorphism")] > 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in tracer.PER_LAYER] \
        == spec["per_layer"]


def test_host_probe_is_fixed_work_and_its_helper_ends():
    assert probe.probe() == probe.probe()
    with probe.HostProbe(min(os.sched_getaffinity(0))) as host:
        assert host.time() > 0 and host.time() > 0
    assert host.proc.returncode == 0
