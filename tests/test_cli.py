"""Exit codes, report schema, and determinism of the command line harness."""

import json

import jsonschema

from conftest import signed_permutation_rep, with_transvections
from outfn import cli
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
        assert run(["gersten", "--n", "9"]) == 2

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


class TestDecompose:
    def _write(self, tmp_path, rep):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep.to_json()))
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

    def test_broken_involution_is_input_error(self, tmp_path):
        rep = signed_permutation_rep(4)
        doctored = rep.to_json()
        doctored["generators"]["e1"] = Matrix(
            [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).to_json()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doctored))
        assert run(["decompose", "--rep", str(path)]) == 2

    def test_missing_file_is_input_error(self):
        assert run(["decompose", "--rep", "/nonexistent/rep.json"]) == 2

    def test_planted_diamond_failure_exits_one(self, tmp_path):
        rep = with_transvections(signed_permutation_rep(4), 4)
        doctored = rep.to_json()
        bad = Matrix.identity(4).to_json()
        bad["entries"][0][2] = "1"
        doctored["generators"]["rho12"] = bad
        path = tmp_path / "planted.json"
        path.write_text(json.dumps(doctored))
        assert run(["decompose", "--rep", str(path)]) == 1


class TestSection4:
    def test_passes(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["section4", "--n", "4", "--json", str(out)]) == 0
        report = load_report(out)
        assert report["summary"]["failed"] == 0

    def test_rank_bounds(self):
        assert run(["section4", "--n", "2"]) == 2
        assert run(["section4", "--n", "7"]) == 2


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

    def test_rank_bounds(self):
        assert run(["induce", "--n", "6"]) == 2

    def test_bad_mu(self):
        assert run(["induce", "--n", "4", "--mu", "7"]) == 2


class TestGraph:
    def test_admissible_builtin(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["graph", "admissible", "--builtin", "cage:7",
                    "--group", "G6", "--json", str(out)]) == 0
        load_report(out)

    def test_barbell_rejected(self):
        assert run(["graph", "admissible", "--builtin", "barbell",
                    "--group", "trivial"]) == 1

    def test_homology_builtin(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["graph", "homology", "--builtin", "cover:5",
                    "--json", str(out)]) == 0
        report = load_report(out)
        assert report["checks"][0]["details"]["dim"] == 9

    def test_rose_lemma(self):
        assert run(["graph", "rose-lemma", "--builtin", "rose:7",
                    "--group", "A7"]) == 0

    def test_cage_lemma(self):
        assert run(["graph", "cage-lemma", "--builtin", "cage:5",
                    "--group", "A5"]) == 0

    def test_double_tree(self, tmp_path):
        out = tmp_path / "dt.json"
        assert run(["graph", "double-tree", "--builtin", "cage:5",
                    "--xi", "vertex-swap", "--json", str(out)]) == 0
        report = load_report(out)
        fixed = next(c for c in report["checks"] if c["name"] == "fixed set recorded")
        assert len(fixed["details"]["fixed_vertices"]) == 5

    def test_collapse(self):
        assert run(["graph", "collapse", "--builtin", "cage:3",
                    "--edges", "c1"]) == 0

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
        # def57 lives on the 6-cage, not on the six-edge daisy chain
        assert run(["graph", "double-tree", "--builtin", "daisy:3",
                    "--xi", "def57"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert run(["graph", "double-tree", "--builtin", "cage:7",
                    "--xi", "def57"]) == 0

    def test_false_perfect_flag_is_usage_error(self, tmp_path, capsys):
        from outfn import actions, graphs
        g = graphs.cage(3)
        obj = {"graph": g.to_json(),
               "group": {"name": "Z2", "generators": ["d"],
                         "relations": [["d", "d"]], "perfect": True},
               "maps": {"d": actions.vertex_swap(g).to_json()}}
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
        obj = act.to_json()
        obj["graph"] = act.graph.to_json()
        path = tmp_path / "act.json"
        path.write_text(json.dumps(obj))
        assert run(["graph", "admissible", "--file", str(path)]) == 0

    def test_graph_file(self, tmp_path):
        from outfn import graphs
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graphs.daisy_chain(4).to_json()))
        assert run(["graph", "homology", "--file", str(path)]) == 0


class TestArgparse:
    def test_unknown_command(self):
        assert run(["conjure"]) == 2

    def test_missing_required(self):
        assert run(["gersten"]) == 2
