"""Exit codes, report schema, and determinism of the command line harness."""

import contextlib
import copy
import hashlib
import io
import json
import multiprocessing
import os
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (argparse_oracle, bare_rho12, benchmark_inputs, flip_matrix,
                      oracle_identity, signed_permutation_rep, to_json, with_transvections)
from outfn import actions, cli, cover, graphs, induced, symreps, words
from outfn.linalg import Matrix


REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "parameters", "checks", "summary"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "skip"]},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "passed", "failed", "skipped"],
        },
    },
}


def run(argv):
    return cli.main(argv)


def load_report(path):
    with open(path) as fh:
        report = json.load(fh)
    jsonschema.validate(report, REPORT_SCHEMA)
    s = report["summary"]
    assert s["total"] == len(report["checks"])
    assert s["passed"] == sum(c["status"] == "pass" for c in report["checks"])
    assert s["failed"] == sum(c["status"] == "fail" for c in report["checks"])
    return report


class TestGersten:
    def test_passes_at_rank_three(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run(["gersten", "--n", "3", "--json", str(out)]) == 0
        report = load_report(out)
        assert report["summary"]["failed"] == 0
        assert report["parameters"]["relators"] == 100

    def test_small_rank_is_usage_error(self):
        assert run(["gersten", "--n", "2"]) == 2

    def test_large_rank_is_usage_error(self):
        assert run(["gersten", "--n", "11"]) == 2

    def test_jobs_below_one_is_usage_error(self):
        assert run(["gersten", "--n", "3", "--jobs", "0"]) == 2
        assert run(["gersten", "--n", "3", "--jobs", "-2"]) == 2

    def test_parallel_jobs_agree(self, tmp_path):
        a, b = tmp_path / "serial.json", tmp_path / "jobs.json"
        run(["gersten", "--n", "3", "--json", str(a)])
        run(["gersten", "--n", "3", "--jobs", "2", "--json", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra["parameters"].pop("jobs"), rb["parameters"].pop("jobs")
        assert ra == rb

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gersten", "--n", "3", "--json", str(a)])
        run(["gersten", "--n", "3", "--json", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_relator_reports_its_images(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(words, "_families", bare_rho12)
        out = tmp_path / "g.json"
        assert run(["gersten", "--n", "3", "--jobs", jobs, "--json", str(out)]) == 1
        [fam] = load_report(out)["checks"]
        assert fam["status"] == "fail"
        assert fam["details"] == {"tuples": 1, "failures": ["rho12"],
                                  "images": {"rho12": [[1, 2], [2], [3]]}}

    def test_jobs_start_no_worker(self, tmp_path, monkeypatch):
        # two usable CPUs and a pool that cannot start: --jobs 2 still
        # checks every relator in process
        def no_pool(*args, **kwargs):
            raise RuntimeError("a worker pool was started")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        a, b = tmp_path / "serial.json", tmp_path / "jobs.json"
        assert run(["gersten", "--n", "3", "--jobs", "1", "--json", str(a)]) == 0
        assert run(["gersten", "--n", "3", "--jobs", "2", "--json", str(b)]) == 0
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert (ra["parameters"].pop("jobs"), rb["parameters"].pop("jobs")) == (1, 2)
        assert ra == rb

    # sha256 of the --json report
    GOLDEN = {
        "3": "eec18e6e7f716e4b740e08f2bce40aa51d4f0404726ee37f328cfc293a108bbd",
        "4": "1f1cad98fdf70bb29d75900de9b8d13ef48e2db582f9b482ded1cd4181cdc508",
        "5": "b30659abf3a696b89ea1dd67a5c80826967e772023c5a41c93263f1782134d44",
        "6": "fb2ab6cc07a377e58770f9de0e78164dac27205a0a410e19acef15e9264d08f5",
    }

    @pytest.mark.parametrize("n", list(GOLDEN))
    def test_report_bytes_are_pinned(self, tmp_path, n):
        out = tmp_path / "g.json"
        assert run(["gersten", "--n", n, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[n]

    def test_passing_families_carry_no_images(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gersten", "--n", "3", "--json", str(out)]) == 0
        for fam in load_report(out)["checks"]:
            assert fam["details"].keys() == {"tuples", "failures"}


class TestDecompose:
    def _write(self, tmp_path, rep):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(to_json(rep)))
        return str(path)

    def test_signed_permutation_rep_passes(self, tmp_path):
        rep = with_transvections(signed_permutation_rep(4), 4)
        out = tmp_path / "d.json"
        code = run(["decompose", "--rep", self._write(tmp_path, rep),
                    "--json", str(out)])
        assert code == 0
        report = load_report(out)
        layer_check = report["checks"][0]
        assert layer_check["details"]["layers"] == [0, 4, 0, 0, 0]

    def test_zero_dimensional_rep_passes(self, tmp_path):
        empty = {"rows": 0, "cols": 0, "entries": []}
        obj = {"group": {"name": "W2", "generators": ["e1", "s1"], "relations": []},
               "dim": 0, "generators": {"e1": empty, "s1": empty}}
        out = tmp_path / "d.json"
        assert run(["decompose", "--rep", write_json(tmp_path, obj),
                    "--json", str(out)]) == 0
        assert load_report(out)["checks"][0]["details"]["layers"] == [0, 0, 0]

    def test_zero_dimensional_rep_with_transvections(self, tmp_path):
        # no eigenspace at all, so no piece is recorded, not even an empty one
        empty = {"rows": 0, "cols": 0, "entries": []}
        names = ["e1", "s1", "rho12", "rho21"]
        obj = {"group": {"name": "W2", "generators": names, "relations": []},
               "dim": 0, "generators": dict.fromkeys(names, empty)}
        path = write_json(tmp_path, obj)
        out = tmp_path / "d.json"
        assert run(["decompose", "--rep", path, "--json", str(out)]) == 0
        layers = [{"i": i, "dim": 0, "binom": b, "divisible": True}
                  for i, b in enumerate((1, 2, 1))]
        assert load_report(out) == {
            "command": "decompose",
            "parameters": {"rep": path, "n": 2},
            "checks": [
                {"name": "eigenspaces fill the space", "status": "pass",
                 "details": {"dims": {}, "layers": [0, 0, 0]}},
                {"name": "layer dimensions divisible by binomials", "status": "pass",
                 "details": {"layers": layers}},
                {"name": "diamond containment rho12", "status": "pass", "details": {}},
                {"name": "diamond containment rho21", "status": "pass", "details": {}},
            ],
            "summary": {"total": 4, "passed": 4, "failed": 0, "skipped": 0},
        }

    def test_broken_involution_is_input_error(self, tmp_path, capsys):
        rep = signed_permutation_rep(4)
        doctored = to_json(rep)
        doctored["generators"]["e1"] = Matrix(
            [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).to_json()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doctored))
        assert run(["decompose", "--rep", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: rep fails 4 defining relation(s): [('e1', 'e1'), "
            "('e1', 's1', 'e1', 's1', 'e1', 's1', 'e1', 's1'), "
            "('e1', 's2', 'e1', 's2'), ('e1', 's3', 'e1', 's3')]\n")

    def test_missing_file_is_input_error(self):
        assert run(["decompose", "--rep", "/nonexistent/rep.json"]) == 2

    @pytest.mark.parametrize("name", ["e3", "e\u0663"])
    def test_listed_flip_is_an_ordinary_generator(self, tmp_path, name):
        # the rank comes from e1 and the swaps, whatever e's the file lists
        plain = to_json(signed_permutation_rep(4))
        listed = copy.deepcopy(plain)
        listed["group"]["generators"].append(name)
        listed["generators"][name] = flip_matrix(3, 4).to_json()
        reports = []
        for obj in (plain, listed):
            path = write_json(tmp_path, obj)
            out = tmp_path / "d.json"
            assert run(["decompose", "--rep", path, "--json", str(out)]) == 0
            reports.append(load_report(out))
        assert reports[0] == reports[1]
        assert reports[1]["parameters"]["n"] == 4
        assert reports[1]["checks"][0]["details"]["layers"] == [0, 4, 0, 0, 0]

    def test_planted_diamond_failure_exits_one(self, tmp_path):
        rep = with_transvections(signed_permutation_rep(4), 4)
        doctored = to_json(rep)
        bad = Matrix.identity(4).to_json()
        bad["entries"][0][2] = "1"
        doctored["generators"]["rho12"] = bad
        path = tmp_path / "planted.json"
        path.write_text(json.dumps(doctored))
        out = tmp_path / "d.json"
        assert run(["decompose", "--rep", str(path), "--json", str(out)]) == 1
        checks = {c["name"]: c for c in load_report(out)["checks"]}
        assert checks["diamond containment rho12"]["details"] == {"noncommuting": ["e3"]}
        assert checks["diamond containment rho13"]["details"] == {}

    # sha256 of the --json report on the benchmark's rep file (seed, n),
    # read from the working directory as rep.json
    GOLDEN = {
        (1, 5): "096d7a51bdecc1e6e3a291d9e7cf59fe2c43736ad7e447ad3afa3505f6c57be8",
        (3, 8): "d8abe779ad41ad659b7b9518cbcaae88b39e3f2efe52938e64fa87c6e4bbbe90",
    }

    @pytest.mark.parametrize("seed,n", list(GOLDEN))
    def test_report_bytes_are_pinned(self, tmp_path, monkeypatch, seed, n):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, benchmark_inputs().signed_exterior_square_rep_file(seed, n),
                   "rep.json")
        assert run(["decompose", "--rep", "rep.json", "--json", "d.json"]) == 0
        digest = hashlib.sha256((tmp_path / "d.json").read_bytes()).hexdigest()
        assert digest == self.GOLDEN[seed, n]

    @pytest.mark.parametrize("seed,n,budget", [(1, 5, 140), (3, 8, 400)])
    def test_matrix_product_budget(self, tmp_path, monkeypatch, seed, n, budget):
        # two products per containment law, none for the commutation of
        # involutions the eigenspace split already certifies
        path = write_json(tmp_path, benchmark_inputs().signed_exterior_square_rep_file(seed, n))
        calls = []
        product = Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__", lambda a, b: calls.append(1) or product(a, b))
        assert run(["decompose", "--rep", path]) == 0
        assert len(calls) <= budget

    @pytest.mark.parametrize("entry, code", [
        ("1e10000000", 2), ("1e-10000000", 2), ("1e4300", 0), ("1e-4300", 0)])
    def test_entry_exponent_is_bounded(self, tmp_path, capsys, entry, code):
        # Fraction("1e10000000") would build a 33-million-bit integer
        obj = benchmark_inputs().signed_exterior_square_rep_file(1, 4)
        obj["generators"]["rho12"]["entries"][0][0] = entry
        assert run(["decompose", "--rep", write_json(tmp_path, obj)]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and err == ("error: cannot read rep file: entry "
                                         f"'{entry}' has an exponent beyond 4300\n")
        else:
            assert err == ""

    def test_singular_generator_is_an_input_error(self, tmp_path, capsys):
        obj = benchmark_inputs().signed_exterior_square_rep_file(1, 4)
        rho12 = obj["generators"]["rho12"]
        rho12["entries"] = [["0"] * len(row) for row in rho12["entries"]]
        assert run(["decompose", "--rep", write_json(tmp_path, obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and \
            err == "error: cannot read rep file: generator 'rho12' is singular\n"

    def test_singular_involution_is_an_input_error(self, tmp_path, capsys):
        # e1 has the relation e1 e1, but a zero e1 squares to zero, not
        # to the identity, so it still gets a determinant
        obj = benchmark_inputs().signed_exterior_square_rep_file(1, 4)
        e1 = obj["generators"]["e1"]
        e1["entries"] = [["0"] * len(row) for row in e1["entries"]]
        assert run(["decompose", "--rep", write_json(tmp_path, obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and \
            err == "error: cannot read rep file: generator 'e1' is singular\n"

    @pytest.mark.parametrize("entry", [True, [1]], ids=["true", "list"])
    def test_non_string_entries_are_input_errors(self, tmp_path, capsys, entry):
        obj = to_json(signed_permutation_rep(3))
        obj["generators"]["e1"]["entries"][0][0] = entry
        assert_usage_error(run(["decompose", "--rep", write_json(tmp_path, obj)]),
                           capsys)


class TestSection4:
    def test_passes(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["section4", "--n", "4", "--json", str(out)]) == 0
        report = load_report(out)
        assert report["summary"]["failed"] == 0

    def test_rank_bounds(self):
        assert run(["section4", "--n", "2"]) == 2
        assert run(["section4", "--n", "7"]) == 2

    def test_deck_eigenspaces_are_computed_once(self, monkeypatch):
        calls = []
        dims = cover.deck_eigenspace_dims
        monkeypatch.setattr(cover, "deck_eigenspace_dims",
                            lambda n: calls.append(n) or dims(n))
        assert run(["section4", "--n", "3"]) == 0
        assert calls == [3]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_deck_eigenspaces_are_checked_once(self, tmp_path, n):
        out = tmp_path / "s.json"
        assert run(["section4", "--n", str(n), "--json", str(out)]) == 0
        names = [c["name"] for c in load_report(out)["checks"]]
        assert len(names) == n + 4
        assert sum("deck eigenspace" in name for name in names) == 1

    # sha256 of the --json report
    GOLDEN = {
        "3": "f652d34489a6bb23eafbcc314e5d14db8954832b5f8e2f43bff6cc6250aa469a",
        "4": "9153995f7184121a716d9a8503addcc52408d4c5bb40a5a5cdea0a623d0593ba",
        "5": "374e3183b0edf6d811d9f109a9d17855ae3bc4447158e2e7454b66082b7ff086",
        "6": "46622bf77f157a4726b9a5da60047b94caa4aacd1b9dcfcfea9201618d7499b1",
    }

    @pytest.mark.parametrize("n", list(GOLDEN))
    def test_report_bytes_are_pinned(self, tmp_path, n):
        out = tmp_path / "s.json"
        assert run(["section4", "--n", n, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[n]


class TestInduce:
    def test_rank_three(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "i.json"
        assert run(["induce", "--n", "3", "--json", str(out)]) == 0
        report = load_report(out)
        names = [c["name"] for c in report["checks"]]
        assert "dimension m = 21" in names
        assert any("certificate" in n for n in names)
        matrices = json.loads((tmp_path / "induced_n3_mu2.json").read_text())
        assert matrices["m"] == 21

    def test_degenerate_partition_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["induce", "--n", "3", "--mu", "1,1"]) == 2
        assert not (tmp_path / "induced_n3_mu1-1.json").exists()

    def test_unwritable_out_fails_before_the_relator_suite(self, tmp_path, monkeypatch,
                                                          capsys):
        def broken(rep):
            raise RuntimeError("relator suite reached")
        monkeypatch.setattr(induced.InducedRep, "relator_report", broken)
        out = tmp_path / "missing" / "x.json"
        assert_usage_error(run(["induce", "--n", "3", "--out", str(out)]), capsys)

    def test_fault_in_the_checks_leaves_no_out_file(self, tmp_path, monkeypatch):
        def broken(rep):
            raise RuntimeError("relator suite failed")
        monkeypatch.setattr(induced.InducedRep, "relator_report", broken)
        monkeypatch.chdir(tmp_path)
        assert run(["induce", "--n", "3", "--out", "m.json"]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_failed_certificate_carries_its_witness(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        partial = [g for g in cover.kernel_generators(3) if g[0] == "partial conjugation"]
        assert len(partial) == 6
        monkeypatch.setattr(induced, "kernel_generators", lambda n: partial)
        assert run(["induce", "--n", "3", "--json", "r.json"]) == 1
        [cert] = [c for c in load_report(tmp_path / "r.json")["checks"]
                  if c["name"] == "non-factoring certificate"]
        assert cert["status"] == "fail"
        assert cert["details"] == {"found": False, "scanned": [
            {"generator": label, "result": "not unipotent"} for _, label, _, _ in partial]}

    def test_certificate_outside_the_kernel_fails(self, tmp_path, monkeypatch):
        # a unipotent candidate whose abelianisation is not the identity
        # certifies nothing: the check fails although one was found
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(induced, "abelianize", lambda imgs: Matrix([[1, 1], [0, 1]]))
        assert run(["induce", "--n", "3", "--json", "r.json"]) == 1
        [cert] = [c for c in load_report(tmp_path / "r.json")["checks"]
                  if c["name"] == "non-factoring certificate"]
        assert cert["status"] == "fail"
        assert cert["details"] == {"found": True, "generator": "commutator i=1,j=2,k=3",
                                   "nilpotency_index": 3, "kernel_membership": False}

    def test_rank_bounds(self):
        assert run(["induce", "--n", "6"]) == 2

    def test_bad_mu(self):
        assert run(["induce", "--n", "4", "--mu", "7"]) == 2

    # sha256 of the --out file and of the --json report, both written
    # under relative names into the working directory
    GOLDEN = {
        ("3", "2"): ("ea500198d6e21d176c536f460342f0fedef85d2809dfc533e019f0ea089e6c8d",
                     "6499aaa8e269ce78daf8ac6c83b94d550b78e49cce93bf988ca0ed5a73c938f0"),
        ("3", None): ("ea500198d6e21d176c536f460342f0fedef85d2809dfc533e019f0ea089e6c8d",
                      "6499aaa8e269ce78daf8ac6c83b94d550b78e49cce93bf988ca0ed5a73c938f0"),
        ("4", "1,1"): ("507169e6710a5f3b62083c215c3b6722a8698e7062797139e8fa3da6208ec7fa",
                       "41a54d68b6b552c62e871135c0ebbc26749af0340805038f42de8465991e1ecb"),
        ("4", "2"): ("73ccf0c7aed594f93debc11ee28747e3480c509f4bf6a2d7021f79221f32a2b6",
                     "a19da72484de36f118926af71bb5e95efc3c146213469d5dd7b7f63a1f36525c"),
        ("5", None): ("fef64d346f394a32b15303501eafe19e6b5f3449b6be48a8a1460bc6cdb5961a",
                      "29b12df844a249ef471bff1e594aaefc9cb0213b42bad0b96328300dd753b806"),
        ("5", "1,1"): ("fef64d346f394a32b15303501eafe19e6b5f3449b6be48a8a1460bc6cdb5961a",
                       "29b12df844a249ef471bff1e594aaefc9cb0213b42bad0b96328300dd753b806"),
        ("5", "2"): ("c555d6fe4f41d6e078ec4336f8d10e419ad341f8de80d1218dae5bc630c1c393",
                     "12bf8c6f52b637300f6a472f8463eb8aef17821d8ef7a1943e5e46f54ab82b02"),
    }

    @pytest.mark.parametrize("n,mu", list(GOLDEN))
    def test_output_bytes_are_pinned(self, tmp_path, monkeypatch, n, mu):
        monkeypatch.chdir(tmp_path)
        argv = ["induce", "--n", n, "--out", "m.json", "--json", "r.json"]
        assert run(argv + (["--mu", mu] if mu else [])) == 0
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in ("m.json", "r.json"))
        assert digests == self.GOLDEN[n, mu]


class TestGraph:
    # sha256 of the --json report of each passing argv; the graph file is
    # the benchmark's relabelled 9-cage (seed 3), read from the working
    # directory as cage.json
    GOLDEN = {
        "admissible --builtin rose:5 --group W5":
            "434afa32c047b3df7cda5cd176f4527858344629b913a7feeb7d54265da7f28f",
        "admissible --builtin cage:7 --group G6":
            "6e83348070a693bdcb3898c9e102e4eb9febefe01c34a0d61ef67668ad586dcb",
        "admissible --builtin cage:6 --group B5":
            "b2e1e03dde7933b7851b482a718b3983cab7b9f3b80b7c03ce214b90be5614a6",
        "rose-lemma --builtin rose:7 --group A7":
            "9b73189e5ebe8e30ca4579694738a894d663106a476899c01b182ea7cefdc3db",
        "rose-lemma --builtin rose:4 --group S4":
            "571f7b459aa5550e48f05853d091863534fcd04d0606ce6501c30cba393823f8",
        "cage-lemma --builtin cage:6 --group A6":
            "91740f4c7bcb1e55f1751cb886b1baba85bd25f8f79358917a6d0c83995f20c3",
        "homology --builtin cover:5":
            "ee6688968d03d6936508d7e9b08c386b6f4ab447612e9cc308496db6ca9382e9",
        "double-tree --builtin cage:5 --xi vertex-swap":
            "83bd6a5b35fcf1b4d6c7722fb05008874dc310a176685af73d10e66f2ebf5b68",
        "double-tree --builtin rose:3 --xi flip-all":
            "1c8dee989bd0bf4d6af7c03ccbc975bae51355e7867e167d8602623ec23abe9c",
        "double-tree --file cage.json --xi def57":
            "44d2ded3f756e12eb515ee952137486fe994718e2fdebc2a40b1191352aa2ef8",
        "collapse --builtin cage:3 --edges c1":
            "2599c79251d63ce1d5d4a96ce030d176cb1e7c495396b04cf18cbeda38944397",
    }

    @pytest.mark.parametrize("argv", list(GOLDEN))
    def test_report_bytes_are_pinned(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, benchmark_inputs().cage_graph_file(3, 9), "cage.json")
        assert run(["graph", *argv.split(), "--json", "r.json"]) == 0
        digest = hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest()
        assert digest == self.GOLDEN[argv]

    def test_admissible_builtin(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["graph", "admissible", "--builtin", "cage:7",
                    "--group", "G6", "--json", str(out)]) == 0
        load_report(out)

    def test_barbell_rejected(self):
        assert run(["graph", "admissible", "--builtin", "barbell",
                    "--group", "trivial"]) == 1

    @pytest.mark.parametrize("token", ["barbell:3", "barbell:"])
    def test_barbell_takes_no_size(self, capsys, token):
        for argv in (["admissible", "--builtin", token, "--group", "trivial"],
                     ["homology", "--builtin", token]):
            assert run(["graph", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and repr(token) in err

    def test_homology_builtin(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["graph", "homology", "--builtin", "cover:5",
                    "--json", str(out)]) == 0
        report = load_report(out)
        assert report["checks"][0]["details"]["dim"] == 9
        assert report["parameters"]["edges"] is None

    def test_rose_lemma(self):
        assert run(["graph", "rose-lemma", "--builtin", "rose:7",
                    "--group", "A7"]) == 0

    def test_cage_lemma(self):
        assert run(["graph", "cage-lemma", "--builtin", "cage:5",
                    "--group", "A5"]) == 0

    @pytest.mark.parametrize("builtin, group, orbits, multiplicity", [
        ("cage:12", "A12", 1, 0),     # far beyond enumerating the group
        ("cage:5", "trivial", 5, 4),  # the trivial group is perfect
    ])
    def test_cage_lemma_on_perfect_images(self, tmp_path, builtin, group,
                                          orbits, multiplicity):
        out = tmp_path / "c.json"
        assert run(["graph", "cage-lemma", "--builtin", builtin, "--group", group,
                    "--json", str(out)]) == 0
        assert load_report(out)["checks"][0]["details"] == {
            "orbit_count": orbits, "trivial_multiplicity": multiplicity, "ok": True}

    def test_cage_lemma_on_a_large_imperfect_image(self, capsys):
        # S9 has 362880 elements and commutator subgroup A9
        assert run(["graph", "cage-lemma", "--builtin", "cage:9",
                    "--group", "S9"]) == 2
        assert capsys.readouterr().err == "error: the acting image is not perfect\n"

    def test_cage_lemma_on_an_edgeless_graph_is_an_input_error(self, tmp_path, capsys):
        # two vertices and no loop, but no edge either: no cage, so no
        # orbit count and no multiplicity to compare
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"graph": {"vertices": ["u", "w"], "edges": []},
                                    "group": {"name": "1", "generators": []},
                                    "maps": {}}))
        assert run(["graph", "cage-lemma", "--file", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: not a cage\n")

    def test_rose_lemma_on_a_rose_without_petals_is_an_input_error(self, tmp_path, capsys):
        # one vertex and no edge: ``graphs.rose(0)`` refuses it, so the
        # lemma has no orbit to count and must not pass vacuously
        path = tmp_path / "petalless.json"
        path.write_text(json.dumps({"graph": {"vertices": ["v"], "edges": []},
                                    "group": {"name": "1", "generators": []},
                                    "maps": {}}))
        assert run(["graph", "rose-lemma", "--file", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: orientation equivariance is "
                                           "implemented for roses\n")

    def test_rose_lemma_without_invariant_orientation_skips(self, tmp_path):
        # flipping every petal fixes p1 and reverses it, so the lemma's
        # hypothesis fails: both checks are skipped, and the run passes
        g = graphs.rose(2)
        obj = {"graph": to_json(g),
               "group": {"name": "Z2", "generators": ["f"], "relations": [["f", "f"]]},
               "maps": {"f": to_json(actions.petal_flip_involution(g))}}
        out = tmp_path / "r.json"
        assert run(["graph", "rose-lemma", "--file", write_json(tmp_path, obj),
                    "--json", str(out)]) == 0
        report = load_report(out)
        assert [(c["name"], c["status"], c["details"]) for c in report["checks"]] == [
            ("invariant orientation exists", "skip", {"obstruction_edge": "p1"}),
            ("trivial multiplicity equals orbit count", "skip",
             {"orbit_count": 2, "trivial_multiplicity": 0})]
        assert report["summary"] == {"total": 2, "passed": 0, "failed": 0, "skipped": 2}

    def test_double_tree(self, tmp_path):
        out = tmp_path / "dt.json"
        assert run(["graph", "double-tree", "--builtin", "cage:5",
                    "--xi", "vertex-swap", "--json", str(out)]) == 0
        report = load_report(out)
        fixed = next(c for c in report["checks"] if c["name"] == "fixed set recorded")
        assert len(fixed["details"]["fixed_vertices"]) == 5

    def test_collapse(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["graph", "collapse", "--builtin", "cage:3",
                    "--edges", "c1,c2", "--json", str(out)]) == 0
        assert load_report(out)["parameters"] == {
            "subaction": "collapse", "builtin": "cage:3", "group": None,
            "xi": None, "edges": "c1,c2", "file": None}

    def test_builtin_size_at_the_limit(self, tmp_path):
        out = tmp_path / "h.json"
        assert cli.MAX_BUILTIN_SIZE == 64
        assert run(["graph", "homology", "--builtin", "rose:64", "--json", str(out)]) == 0
        assert load_report(out)["checks"][0]["details"]["dim"] == 64

    @pytest.mark.parametrize("argv", [
        ["homology", "--builtin", "rose:65"],
        ["homology", "--builtin", "cage:65"],
        ["cage-lemma", "--builtin", "cage:65", "--group", "A65"],
        ["admissible", "--builtin", "rose:65", "--group", "trivial"],
    ])
    def test_builtin_size_beyond_the_limit_is_usage_error(self, capsys, argv):
        assert run(["graph", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: builtin graph {argv[2]!r}: the size is at most 64\n"

    def test_collapse_of_integer_edge_ids(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": [0, 1], "edges": [
            {"id": 1, "iota": 0, "tau": 1}, {"id": 2, "iota": 0, "tau": 1},
            {"id": 3, "iota": 1, "tau": 0}]}))
        out = tmp_path / "c.json"
        assert run(["graph", "collapse", "--file", str(path), "--edges", "1",
                    "--json", str(out)]) == 0
        details = load_report(out)["checks"][0]["details"]
        assert (details["source_dim"], details["quotient_dim"]) == (2, 2)

    def test_edge_ids_that_print_alike_are_usage_errors(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": [0, 1], "edges": [
            {"id": 1, "iota": 0, "tau": 1}, {"id": "1", "iota": 0, "tau": 1},
            {"id": 3, "iota": 1, "tau": 0}]}))
        assert run(["graph", "collapse", "--file", str(path), "--edges", "1"]) == 2
        assert "edge ids 1 and '1' print alike" in capsys.readouterr().err

    def test_false_double_tree_conclusion_fails_its_check(self, tmp_path, monkeypatch):
        real = graphs.DoubleTree.conclusions
        monkeypatch.setattr(graphs.DoubleTree, "conclusions",
                            lambda self: {**real(self), "d_is_tree": False})
        out = tmp_path / "dt.json"
        assert run(["graph", "double-tree", "--builtin", "cage:5",
                    "--xi", "vertex-swap", "--json", str(out)]) == 1
        status = {c["name"]: c["status"] for c in load_report(out)["checks"]}
        assert status["d is tree"] == "fail"
        assert status["mirror is tree"] == "pass"

    @pytest.mark.parametrize("fault, dim", [
        # the last cycle missing
        (lambda k: Matrix([row[:-1] for row in k.data], cols=k.cols - 1), 1),
        # the first cycle replaced by the edge c1 alone, unbalanced at u and w
        (lambda k: Matrix([[int(i == 0), *row[1:]] for i, row in enumerate(k.data)]), 2),
    ], ids=["missing", "unbalanced"])
    def test_wrong_cycle_basis_fails_its_check(self, tmp_path, monkeypatch, fault, dim):
        real = Matrix.kernel_basis
        monkeypatch.setattr(Matrix, "kernel_basis", lambda self: fault(real(self)))
        out = tmp_path / "h.json"
        assert run(["graph", "homology", "--builtin", "cage:3", "--json", str(out)]) == 1
        [c] = load_report(out)["checks"]
        assert (c["name"], c["status"]) == ("cycle space dimension = 2", "fail")
        assert c["details"] == {"edges": 3, "vertices": 2, "components": 1, "dim": dim}

    def test_unknown_builtin(self):
        assert run(["graph", "homology", "--builtin", "moose:3"]) == 2

    def test_unknown_group(self):
        assert run(["graph", "admissible", "--builtin", "cage:5",
                    "--group", "Q8"]) == 2

    def test_non_integer_builtin_size_is_usage_error(self, capsys):
        assert run(["graph", "admissible", "--builtin", "rose:x",
                    "--group", "S3"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_rose_lemma_off_a_rose_is_usage_error(self, capsys):
        assert run(["graph", "rose-lemma", "--builtin", "cage:5",
                    "--group", "S5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_inputs(self):
        assert run(["graph", "admissible"]) == 2

    def test_involution_of_another_graph_is_usage_error(self, capsys):
        # def57 is defined on cages, not on the six-edge daisy chain
        assert run(["graph", "double-tree", "--builtin", "daisy:3",
                    "--xi", "def57"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert run(["graph", "double-tree", "--builtin", "cage:7",
                    "--xi", "def57"]) == 0

    @pytest.mark.parametrize("k, code", [(7, 0), (6, 1)])
    def test_def57_on_a_relabelled_cage_file(self, tmp_path, k, code):
        path = tmp_path / "cage.json"
        path.write_text(json.dumps(benchmark_inputs().cage_graph_file(1, k)))
        out = tmp_path / "dt.json"
        assert run(["graph", "double-tree", "--file", str(path), "--xi", "def57",
                    "--json", str(out)]) == code
        builtin = tmp_path / "builtin.json"
        assert run(["graph", "double-tree", "--builtin", f"cage:{k}", "--xi", "def57",
                    "--json", str(builtin)]) == code
        summary = load_report(out)["summary"]
        assert summary == load_report(builtin)["summary"]
        assert summary["passed"] == (6 if code == 0 else 0)

    def test_strand_swap_on_renamed_and_parallel_edges(self, tmp_path, capsys):
        g = to_json(graphs.daisy_chain(3))
        for m, rec in enumerate(g["edges"]):
            rec["id"] = f"x{m}"
        path = tmp_path / "daisy.json"
        path.write_text(json.dumps(g))
        assert run(["graph", "double-tree", "--file", str(path),
                    "--xi", "strand-swap"]) == 1
        assert run(["graph", "double-tree", "--builtin", "rose:2",
                    "--xi", "strand-swap"]) == 1
        assert run(["graph", "double-tree", "--builtin", "cage:2",
                    "--xi", "strand-swap"]) == 0
        capsys.readouterr()
        assert run(["graph", "double-tree", "--builtin", "cage:3",
                    "--xi", "strand-swap"]) == 2
        assert capsys.readouterr().err.startswith("error: strand swap")

    def test_false_perfect_flag_is_usage_error(self, tmp_path, capsys):
        from outfn import actions, graphs
        g = graphs.cage(3)
        obj = {"graph": to_json(g),
               "group": {"name": "Z2", "generators": ["d"],
                         "relations": [["d", "d"]], "perfect": True},
               "maps": {"d": to_json(actions.vertex_swap(g))}}
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(obj))
        assert run(["graph", "cage-lemma", "--file", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_double_tree_beyond_the_loop_edge_cap(self, tmp_path):
        out = tmp_path / "dt.json"
        assert run(["graph", "double-tree", "--builtin", "cage:40",
                    "--xi", "vertex-swap", "--json", str(out)]) == 0
        load_report(out)

    def test_admissible_with_many_orbits_reports_forest_orbits(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["graph", "admissible", "--builtin", "cage:25",
                    "--group", "trivial", "--json", str(out)]) == 1
        report = load_report(out)
        forests = next(c for c in report["checks"]
                       if c["name"] == "no invariant nontrivial forest")
        assert forests["details"]["forests"] == [[f"c{i}"] for i in range(1, 26)]

    def test_action_file(self, tmp_path):
        from outfn import actions
        act = actions.cage_full(3)
        obj = to_json(act)
        path = tmp_path / "act.json"
        path.write_text(json.dumps(obj))
        assert run(["graph", "admissible", "--file", str(path)]) == 0

    def test_action_file_with_integer_ids(self, tmp_path):
        # JSON keys are strings; loading must map them back onto int ids
        act = actions.cage_full(3)
        g = graphs.make_graph([0, 1], [(1, 0, 1), (2, 0, 1), (3, 0, 1)])
        vid, eid = {"u": 0, "w": 1}, {"c1": 1, "c2": 2, "c3": 3}
        maps = {name: graphs.GraphAut(g, {vid[a]: vid[b] for a, b in aut.vmap.items()},
                                      {eid[a]: eid[b] for a, b in aut.emap.items()},
                                      {eid[a]: f for a, f in aut.flips.items()})
                for name, aut in act.maps.items()}
        checks = []
        for action in (act, graphs.GraphAction(g, act.group, maps)):
            path = tmp_path / "act.json"
            path.write_text(json.dumps(to_json(action)))
            out = tmp_path / "r.json"
            assert run(["graph", "admissible", "--file", str(path), "--json", str(out)]) == 0
            checks.append([(c["name"], c["status"]) for c in load_report(out)["checks"]])
        assert checks[0] == checks[1]
        assert checks[1][-1][0] == "admissible"

    def test_vertex_ids_that_print_alike_are_usage_errors(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": [1, "1"], "edges": [
            {"id": "a", "iota": 1, "tau": "1"}]}))
        assert run(["graph", "homology", "--file", str(path)]) == 2
        assert "vertex ids 1 and '1' print alike" in capsys.readouterr().err

    def test_graph_file(self, tmp_path):
        from outfn import graphs
        path = tmp_path / "g.json"
        path.write_text(json.dumps(to_json(graphs.daisy_chain(4))))
        assert run(["graph", "homology", "--file", str(path)]) == 0


# Tokens an argv is drawn from: every option and subaction of the table,
# values that do and do not look like options, and unknown options that
# abbreviate none of the real ones (``-h`` and abbreviations are left out:
# the reader refuses abbreviations, which argparse would complete).
ARGV_VALUES = ["3", "-3", "x", "-", "-x", "--n", "", "-x y"]
ARGV_UNKNOWN = ["--bogus", "--bogus=3", "-q", "--nn"]
ARGV_OPTIONS = sorted({name for _, options, _ in cli._COMMANDS.values()
                       for name in options})
ARGV_SUBACTIONS = ["admissible", "homology", "rose-lemma", "cage-lemma",
                   "double-tree", "collapse"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS))
                   | st.sampled_from(["conjure", *ARGV_VALUES]))
    own = sorted(cli._COMMANDS[command][1]) if command in cli._COMMANDS else ["n"]
    if draw(st.booleans()):
        # a random argv almost always fails: half of them use only the
        # command's own options and subactions, with values that are not
        # option-like
        name, value = st.sampled_from(own), st.sampled_from(["3", "-3", "", "-x y"])
        missing = st.nothing()
        positional = st.sampled_from(ARGV_SUBACTIONS) if command == "graph" else st.nothing()
    else:
        name = st.sampled_from(own) | st.sampled_from(ARGV_OPTIONS)
        value = st.sampled_from(ARGV_VALUES)
        missing = name.map(lambda n: ["--" + n])
        positional = st.sampled_from(ARGV_VALUES + ARGV_SUBACTIONS + ARGV_UNKNOWN)
    pieces = draw(st.lists(st.one_of(
        st.tuples(name, value).map(lambda p: ["--" + p[0], p[1]]),
        st.tuples(name, value).map(lambda p: [f"--{p[0]}={p[1]}"]),
        missing,
        positional.map(lambda t: [t]),
    ), max_size=5))
    if draw(st.booleans()):
        required = {"decompose": ["--rep", "r.json"], "conjure": [],
                    "graph": [draw(st.sampled_from(ARGV_SUBACTIONS))]}
        pieces.insert(draw(st.integers(0, len(pieces))), required.get(command, ["--n", "3"]))
    return ([command] if draw(st.integers(0, 9)) else []) + sum(pieces, [])


class TestArgv:
    """The argv reader against argparse, usage errors and ``--help``."""

    @settings(max_examples=500, deadline=None)
    @given(argvs())
    def test_reads_argv_as_argparse_does(self, argv):
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                expected = vars(argparse_oracle().parse_args(argv))
        except SystemExit:
            expected = None
        try:
            got = vars(cli.parse_args(argv))
        except cli.UsageError:
            got = None
        if expected is not None and got is not None:
            assert got.pop("func") is expected.pop("func")
        assert got == expected

    @pytest.mark.parametrize("argv", [
        [], ["conjure"], ["gersten"], ["gersten", "--n"], ["gersten", "--n", "x"],
        ["gersten", "--n", "3", "--rep", "r"], ["gersten", "--jso", "a", "--n", "3"],
        ["graph"], ["graph", "bogus"],
        ["graph", "homology", "extra", "--builtin", "cage:3"]])
    def test_bad_argv_is_one_error_line(self, argv, capsys):
        assert_usage_error(run(argv), capsys, quiet=True)

    @pytest.mark.parametrize("argv, names", [
        (["--help"], ["gersten", "decompose", "section4", "induce", "graph"]),
        (["-h"], ["gersten", "decompose", "section4", "induce", "graph"]),
        (["graph", "--help"], ["--builtin", "--group", "--xi", "--edges", "--file",
                               "--json", *ARGV_SUBACTIONS]),
        (["induce", "-h"], ["--n", "--mu", "--out", "--json"])])
    def test_help(self, argv, names, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in names)

    def test_main_runs_the_command_it_finds_at_call_time(self, monkeypatch):
        # the benchmark's tracer wraps ``cli.cmd_*`` after import
        seen = []
        monkeypatch.setattr(cli, "cmd_graph", lambda args: seen.append(args.subaction) or 0)
        assert run(["graph", "homology", "--builtin", "cage:3"]) == 0
        assert seen == ["homology"]


class TestMoveEngineOnly:
    def test_no_subcommand_certifies_an_automorphism(self, tmp_path, monkeypatch):
        # every certificate evaluates token words by Nielsen moves, so no
        # inverse table is certified on a CLI path
        certified = []
        real = words.Automorphism.__post_init__
        monkeypatch.setattr(words.Automorphism, "__post_init__",
                            lambda self: certified.append(self) or real(self))
        monkeypatch.chdir(tmp_path)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(to_json(with_transvections(signed_permutation_rep(4), 4))))
        for argv in (["gersten", "--n", "4"], ["section4", "--n", "5"],
                     ["induce", "--n", "3"], ["decompose", "--rep", str(rep)],
                     ["graph", "admissible", "--builtin", "rose:5", "--group", "W5"]):
            assert run(argv) == 0, argv
        assert len(certified) == 0


def assert_usage_error(code, capsys, quiet=False):
    """Exit 2 with one ``error:`` line; with ``quiet``, nothing on stdout."""
    assert code == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == "" or not quiet


def write_json(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def rep_without(n, missing):
    """The signed permutation rep of rank n with some generators left out."""
    obj = to_json(signed_permutation_rep(n))
    group = obj["group"]
    group["generators"] = [g for g in group["generators"] if g not in missing]
    group["relations"] = [r for r in group["relations"]
                          if not set(r) & set(missing)]
    for name in missing:
        del obj["generators"][name]
    return obj


def cage_action_file():
    act = actions.cage_full(3)
    obj = to_json(act)
    return obj


class TestFailureBoundary:
    """Every input error exits 2 with one ``error:`` line; faults exit 3."""

    def test_double_tree_on_an_edgeless_graph(self, tmp_path, capsys):
        path = write_json(tmp_path, {"vertices": ["a"], "edges": []})
        assert_usage_error(run(["graph", "double-tree", "--file", path,
                                "--xi", "flip-all"]), capsys)

    def test_non_integer_mu(self, tmp_path, capsys):
        assert_usage_error(run(["induce", "--n", "3", "--mu", "a",
                                "--out", str(tmp_path / "m.json")]), capsys)

    def test_rep_without_an_adjacent_swap(self, tmp_path, capsys):
        # e1, s1, s3: the chain stops at s1, so the rank is 2 and s3 lies beyond it
        path = write_json(tmp_path, rep_without(4, ["s2"]))
        assert_usage_error(run(["decompose", "--rep", path]), capsys)

    def test_rep_relation_names_an_unknown_generator(self, tmp_path, capsys):
        obj = to_json(signed_permutation_rep(3))
        obj["group"]["relations"].append(["e1", "x"])
        path = write_json(tmp_path, obj)
        assert_usage_error(run(["decompose", "--rep", path]), capsys)

    @pytest.mark.parametrize("name", ["rho19", "rho11", "rho5", "rhox"])
    def test_rho_outside_the_rank(self, tmp_path, capsys, name):
        rep = with_transvections(signed_permutation_rep(4), 4)
        obj = to_json(rep)
        obj["generators"][name] = Matrix.identity(4).to_json()
        obj["group"]["generators"].append(name)
        path = write_json(tmp_path, obj)
        assert_usage_error(run(["decompose", "--rep", path]), capsys)

    def test_rho_names_at_rank_ten_and_beyond(self):
        def rho_pairs(n, names):
            obj = to_json(signed_permutation_rep(n))
            for name in names:
                obj["generators"][name] = Matrix.identity(n).to_json()
            return symreps.read_signed_rep(obj)[2]

        assert rho_pairs(10, ["rho110", "rho101", "rho12"]) == [
            (1, 2), (1, 10), (10, 1)]
        assert rho_pairs(11, ["rho1011"]) == [(10, 11)]
        for n, name in ((11, "rho111"),  # (1, 11) or (11, 1)
                        (10, "rho1011"), (4, "rho19"), (4, "rho11")):  # no pair
            with pytest.raises(ValueError, match=re.escape(
                    f"'{name}' is not rho{{i}}{{j}} for one 1 <= i != j <= {n}")):
                rho_pairs(n, [name])

    @pytest.mark.parametrize("name", ["e7", "e5", "s4"])
    def test_e_or_s_beyond_the_rank(self, tmp_path, capsys, name):
        obj = to_json(signed_permutation_rep(4))
        obj["generators"][name] = Matrix.identity(4).to_json()
        assert_usage_error(run(["decompose", "--rep", write_json(tmp_path, obj)]), capsys)

    def test_involutions_without_swaps(self, tmp_path, capsys):
        # (Z/2)^2 on a line, e1 = -1 and e2 = 1: no S_n, so no rank
        obj = {"group": {"name": "Z2xZ2", "generators": ["e1", "e2"],
                         "relations": [["e1", "e1"], ["e2", "e2"],
                                       ["e1", "e2", "e1", "e2"]]},
               "dim": 1,
               "generators": {"e1": Matrix([[-1]]).to_json(),
                              "e2": Matrix([[1]]).to_json()}}
        assert_usage_error(run(["decompose", "--rep", write_json(tmp_path, obj)]), capsys)

    def test_type_b_relations_are_checked_when_the_file_lists_none(self, tmp_path, capsys):
        # s2 = I, so (s1 s2)^3 = s1 is not the identity: not a rep of W3
        obj = {"group": {"name": "W3?", "generators": ["e1", "s1", "s2"],
                         "relations": []},
               "dim": 3,
               "generators": {"e1": Matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]).to_json(),
                              "s1": Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]).to_json(),
                              "s2": Matrix.identity(3).to_json()}}
        assert run(["decompose", "--rep", write_json(tmp_path, obj)]) == 2
        assert capsys.readouterr().err == (
            "error: rep fails 1 defining relation(s): "
            "[('s1', 's2', 's1', 's2', 's1', 's2')]\n")

    @pytest.mark.parametrize("dim", [4.5, True, "4", None])
    def test_dim_that_is_not_an_integer(self, tmp_path, capsys, dim):
        if dim is True:  # int(True) == 1: the dimension of a trivial rep
            group = symreps.signed_permutation_group(2)
            obj = to_json(symreps.FiniteRep(group, 1, {g: Matrix.identity(1)
                                                       for g in group.generators}))
        else:  # int(4.5) == 4
            obj = to_json(signed_permutation_rep(4))
        obj["dim"] = dim
        assert_usage_error(run(["decompose", "--rep", write_json(tmp_path, obj)]), capsys)
        with pytest.raises(ValueError):
            symreps.FiniteRep.from_json(obj)

    def test_action_relation_names_an_unknown_generator(self, tmp_path, capsys):
        obj = cage_action_file()
        obj["group"]["relations"].append(["zz"])
        path = write_json(tmp_path, obj)
        assert_usage_error(run(["graph", "admissible", "--file", path]), capsys)

    def test_failing_relations_are_named(self, tmp_path, capsys):
        act = actions.symmetric_rose(3)
        obj = to_json(act)
        obj["group"]["relations"].append(["s1"])
        path = write_json(tmp_path, obj, "action.json")
        for sub in ("admissible", "rose-lemma", "cage-lemma"):
            assert run(["graph", sub, "--file", path]) == 2
            assert capsys.readouterr().err == (
                "error: action fails 1 defining relation(s): [('s1',)]\n")
        rep = to_json(signed_permutation_rep(3))
        rep["group"]["relations"] += [["e1"], ["s2"]]
        assert run(["decompose", "--rep", write_json(tmp_path, rep, "rep.json")]) == 2
        assert capsys.readouterr().err == (
            "error: rep fails 2 defining relation(s): [('e1',), ('s2',)]\n")

    def test_flip_of_an_unknown_edge(self, tmp_path, capsys):
        g = graphs.rose(2)
        identity = to_json(oracle_identity(g))
        obj = {"graph": to_json(g),
               "group": {"name": "Z2", "generators": ["f"], "relations": [["f", "f"]]},
               "maps": {"f": {**identity, "flips": {"P1": True}}}}
        path = write_json(tmp_path, obj)
        assert_usage_error(run(["graph", "rose-lemma", "--file", path]), capsys)

    @pytest.mark.parametrize("flip", ["false", "0", 0, None],
                             ids=["string-false", "string-0", "zero", "null"])
    def test_flip_that_is_not_a_boolean(self, tmp_path, capsys, flip):
        g = graphs.rose(3)
        identity = to_json(oracle_identity(g))
        obj = {"graph": to_json(g),
               "group": {"name": "Z2", "generators": ["f"], "relations": [["f", "f"]]},
               "maps": {"f": {**identity, "flips": {"p1": flip}}}}
        path = write_json(tmp_path, obj)
        assert run(["graph", "rose-lemma", "--file", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "flip of edge 'p1'" in err
        obj["maps"]["f"]["flips"]["p1"] = False
        assert run(["graph", "rose-lemma", "--file", write_json(tmp_path, obj)]) == 0

    def test_graph_file_holding_a_list(self, tmp_path, capsys):
        path = write_json(tmp_path, [1, 2])
        assert_usage_error(run(["graph", "homology", "--file", path]), capsys)

    def test_edge_map_that_is_not_an_object(self, tmp_path, capsys):
        obj = cage_action_file()
        name = obj["group"]["generators"][0]
        obj["maps"][name]["edge_map"] = ["c1", "c2", "c3"]
        path = write_json(tmp_path, obj)
        assert_usage_error(run(["graph", "admissible", "--file", path]), capsys)

    def test_json_nested_too_deep_to_decode(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        assert_usage_error(run(["graph", "homology", "--file", str(path)]), capsys)

    def test_zero_denominator_entry(self, tmp_path, capsys):
        obj = to_json(signed_permutation_rep(3))
        obj["generators"]["e1"]["entries"][0][0] = "1/0"
        path = write_json(tmp_path, obj)
        assert_usage_error(run(["decompose", "--rep", path]), capsys)

    @pytest.mark.parametrize("argv", [
        ["gersten", "--n", "3", "--json", "{missing}/x.json"],
        ["induce", "--n", "3", "--out", "{missing}/x.json"],
        ["section4", "--n", "3", "--json", "{directory}"],
        ["gersten", "--n", "3", "--json="],
        ["induce", "--n", "3", "--out="],
    ], ids=["gersten", "induce", "section4", "gersten-empty-json", "induce-empty-out"])
    def test_unwritable_output_path(self, tmp_path, monkeypatch, capsys, argv):
        argv = [a.format(missing=tmp_path / "missing", directory=tmp_path) for a in argv]
        monkeypatch.chdir(tmp_path)
        assert_usage_error(run(argv), capsys, quiet=True)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["induce", "--n", "3", "--out", "r.json", "--json", "r.json"],
        ["induce", "--n", "3", "--out", "./r.json", "--json=r.json"],
        ["induce", "--n", "3", "--json", "induced_n3_mu2.json"],
    ], ids=["same-name", "same-file", "default-out"])
    def test_out_and_json_on_one_file_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert_usage_error(run(argv), capsys, quiet=True)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,obj", [
        (["decompose", "--rep"], to_json(signed_permutation_rep(3))),
        (["graph", "homology", "--file"], to_json(graphs.cage(3))),
    ], ids=["decompose", "graph"])
    def test_json_on_an_input_file_refused(self, tmp_path, monkeypatch, capsys,
                                          command, obj):
        monkeypatch.chdir(tmp_path)
        path = write_json(tmp_path, obj)
        before = Path(path).read_text()
        assert_usage_error(run([*command, path, "--json", "./input.json"]), capsys,
                           quiet=True)
        assert Path(path).read_text() == before

    @pytest.mark.parametrize("argv,patch", [
        (["gersten", "--n", "3", "--json", "r.json"], (words, "verify_gersten")),
        (["section4", "--n", "3", "--json", "r.json"], (cover, "verify_ia_action_tables")),
        (["induce", "--n", "3", "--out", "m.json", "--json", "r.json"],
         (induced.InducedRep, "relator_report")),
        (["graph", "double-tree", "--builtin", "cage:3", "--xi", "vertex-swap",
          "--json", "r.json"], (graphs, "double_tree_decomposition")),
    ], ids=["gersten", "section4", "induce", "double-tree"])
    def test_fault_in_the_checks_leaves_no_report(self, tmp_path, monkeypatch, argv, patch):
        def broken(*args):
            raise RuntimeError("checks failed")
        monkeypatch.setattr(*patch, broken)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text("an earlier report\n")
        assert run(argv) == 3
        assert list(tmp_path.iterdir()) == []

    def test_refused_arguments_remove_an_existing_report(self, tmp_path, monkeypatch,
                                                         capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text("an earlier report\n")
        assert_usage_error(run(["gersten", "--n", "11", "--json", "r.json"]), capsys,
                           quiet=True)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault", [RuntimeError, AssertionError, KeyError])
    def test_fault_is_exit_three_in_one_line(self, monkeypatch, capsys, fault):
        def broken(graph):
            raise fault("boom")
        monkeypatch.setattr(graphs, "h1_basis", broken)
        assert run(["graph", "homology", "--builtin", "cage:3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {fault.__name__}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_builtin_tables_see_patched_builders(self, monkeypatch):
        calls = []
        real = actions.cage_full
        monkeypatch.setattr(actions, "cage_full",
                            lambda k: calls.append(k) or real(k))
        assert run(["graph", "admissible", "--builtin", "cage:4",
                    "--group", "G3"]) == 0
        assert calls == [4]


# -- fuzzing the exit-code contract -------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("acesv123-/", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abc", max_size=2), inner, max_size=3),
    max_leaves=6)


def mutate(data, obj):
    """``obj`` with a few values replaced or deleted at random paths."""
    obj = copy.deepcopy(obj)
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, data.draw(st.sampled_from(list(keys)))
            node = node[key]
        if parent is None:
            return data.draw(JSON_VALUES)
        if data.draw(st.booleans()):
            parent[key] = data.draw(JSON_VALUES)
        elif isinstance(parent, dict):
            del parent[key]
        else:
            parent.pop(key)
    return obj


def assert_contract(argv):
    """``cli.main`` exits 0, 1 or 2; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


SIZES = st.one_of(st.integers(-1, 5).map(str), st.sampled_from(["", "x", "2.5"]))
BUILTINS = st.builds(lambda name, sep, k: name + sep + k,
                     st.sampled_from(["rose", "cage", "daisy", "cover", "barbell", "moose"]),
                     st.sampled_from([":", "", "::"]), SIZES)
GROUPS = st.builds(lambda letter, k: letter + k,
                   st.sampled_from(["S", "A", "W", "G", "B", "s", "Q", "trivial", ""]),
                   st.one_of(st.just(""), SIZES))
XIS = st.sampled_from(["vertex-swap", "strand-swap", "flip-all", "def57", "", "nope"])
SUBACTIONS = st.sampled_from(["admissible", "homology", "rose-lemma",
                              "cage-lemma", "double-tree", "collapse", "bogus"])


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    """Exit codes stay in {0, 1, 2} and no exception escapes ``main``.

    Examples share one temporary directory, which is also the cwd, so
    that ``--json`` and ``induce`` write nowhere else.
    """

    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @FUZZ
    @given(sub=SUBACTIONS, builtin=st.none() | BUILTINS, group=st.none() | GROUPS,
           xi=st.none() | XIS, edges=st.none() | st.text("c123,", max_size=4))
    def test_graph_argv(self, sub, builtin, group, xi, edges):
        argv = ["graph", sub]
        for flag, value in (("--builtin", builtin), ("--group", group),
                            ("--xi", xi), ("--edges", edges)):
            if value is not None:
                argv += [flag, value]
        assert_contract(argv)

    @FUZZ
    @given(tokens=st.lists(st.sampled_from(
        ["gersten", "section4", "induce", "decompose", "graph", "--n", "--mu",
         "--rep", "--builtin", "-1", "0", "2", "3", "4", "9", "x", "1,1",
         "homology", "cage:3", "--json"]), max_size=5))
    def test_argv_tokens(self, tokens):
        assert_contract(tokens)

    @FUZZ
    @given(mu=st.text("12,a -", max_size=4))
    def test_induce_mu(self, mu):
        assert_contract(["induce", "--n", "3", "--mu", mu])

    @FUZZ
    @given(data=st.data())
    def test_malformed_rep_file(self, data):
        rep = to_json(with_transvections(signed_permutation_rep(3), 3))
        assert_contract(["decompose", "--rep", self._file(data, rep)])

    @FUZZ
    @given(data=st.data(), sub=SUBACTIONS, xi=XIS)
    def test_malformed_graph_or_action_file(self, data, sub, xi):
        obj = data.draw(st.sampled_from([to_json(graphs.daisy_chain(3)),
                                         cage_action_file()]))
        argv = ["graph", sub, "--file", self._file(data, obj), "--edges", "c1"]
        assert_contract(argv + (["--xi", xi] if xi else []))

    @staticmethod
    def _file(data, valid):
        """``input.json`` in the cwd, holding a mutated ``valid`` object or raw text."""
        with open("input.json", "w") as fh:
            if data.draw(st.integers(0, 9)) == 0:
                fh.write(data.draw(st.text(max_size=8)))
            else:
                json.dump(mutate(data, valid), fh)
        return "input.json"
