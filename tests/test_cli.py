"""Command-line behaviour: verdicts, exit codes, determinism, output formats."""

import json
import os
import subprocess
import sys

from twf import cli, corpus_path, semantics
from twf.cli import main

RECETTE = str(corpus_path("recette.twf"))
COUNTEREXAMPLE = str(corpus_path("counterexample.twf"))
SEQCHAIN = str(corpus_path("seqchain.twf"))
FIG2B = str(corpus_path("fig2b.twf"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_error_exit(code, err):
    """Exit code 2 with one `error:` line, never a traceback."""
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


class TestCheck:
    def test_satisfiable_file_exits_zero_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", COUNTEREXAMPLE)
        assert code == 0
        assert "satisfiable: yes" in out
        assert "witness schedule:" in out
        assert "alpha" in out

    def test_unsatisfiable_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.twf"
        bad.write_text("workflow bad = a -> b\nconstraints { a {bi} b; }", encoding="utf-8")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert "satisfiable" in out and "no" in out

    def test_loop_verdict_is_labeled_bounded(self, capsys):
        code, out, _ = run(capsys, "check", FIG2B)
        assert code == 0
        assert "bounded search, loop bound 3" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "check", RECETTE, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["tool"] == "twf"
        assert payload["tool_version"]
        assert payload["unroll_bound"] == 3
        assert payload["verdict"] is True
        assert payload["witness"]
        row = payload["witness"][0]
        assert set(row) == {"activity", "start", "end"}

    def test_parse_error_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.twf"
        broken.write_text("workflow w = or{ a | }", encoding="utf-8")
        code, _, err = run(capsys, "check", str(broken))
        assert code == 2
        assert "expected" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.twf")
        assert code == 2

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        latin = tmp_path / "latin.twf"
        latin.write_bytes("workflow w = 'caf\u00e9'".encode("latin-1"))
        code, _, err = run(capsys, "check", str(latin))
        assert_error_exit(code, err)
        assert "latin.twf" in err

    def test_unroll_bound_below_one_exits_two(self, capsys):
        for bound in ("0", "-1"):
            code, out, err = run(capsys, "check", RECETTE, "--unroll-bound", bound)
            assert_error_exit(code, err)
            assert "--unroll-bound" in err
            assert out == ""

    def test_budget_error_exits_two(self, tmp_path, capsys):
        big = tmp_path / "big.twf"
        atoms = " ; ".join("abcdefgh")
        big.write_text(
            f"workflow big = and{{ {atoms} }}\nconstraints {{ a {{b}} a; }}",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "check", str(big))
        assert code == 2
        assert "atom budget (7)" in err
        assert "shapes skipped: 1, the smallest with 8 atoms" in err

    def test_refuted_cycle_never_enters_the_weak_order_search(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("weak-order search entered")

        monkeypatch.setattr(semantics, "weak_orders", unreachable)
        cycle = tmp_path / "cycle.twf"
        cycle.write_text(
            "workflow cyc = and{ a ; b ; c ; d ; e ; f ; g }\n"
            "constraints { a {b} c; c {b} e; e {b} a; }",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check", str(cycle))
        assert (code, out, err) == (1, "satisfiable: no\n", "")


class TestStrongCheck:
    def test_counterexample_not_strongly_satisfiable(self, capsys):
        code, out, _ = run(capsys, "strong-check", COUNTEREXAMPLE)
        assert code == 1
        assert "strongly-satisfiable: no" in out

    def test_recipe_strongly_satisfiable(self, capsys):
        code, out, _ = run(capsys, "strong-check", RECETTE)
        assert code == 0
        assert "strongly-satisfiable: yes" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "strong-check", COUNTEREXAMPLE, "--json")
        assert code == 1
        assert json.loads(out)["verdict"] is False

    def test_running_out_of_memory_exits_two(self, capsys, monkeypatch):
        def exhaust(network):
            raise MemoryError

        monkeypatch.setattr(cli, "is_consistent", exhaust)
        code, out, err = run(capsys, "strong-check", RECETTE)
        assert_error_exit(code, err)
        assert err == "error: out of memory\n"


class TestScenario:
    def test_recipe_scenario_and_schedule(self, capsys):
        code, out, _ = run(capsys, "scenario", RECETTE)
        assert code == 0
        assert "scenario:" in out and "schedule:" in out

    def test_inconsistent_network_exits_one(self, capsys):
        code, out, _ = run(capsys, "scenario", COUNTEREXAMPLE)
        assert code == 1
        assert "inconsistent" in out


class TestTextTransforms:
    def test_normalize_reparses(self, capsys):
        from twf.dsl import parse

        code, out, _ = run(capsys, "normalize", FIG2B)
        assert code == 0
        parse(out)

    def test_seqfree_has_no_arrows(self, capsys):
        code, out, _ = run(capsys, "seqfree", SEQCHAIN)
        assert code == 0
        assert "->" not in out
        assert "{b, m}" in out

    def test_subsumes_holds_and_unknown(self, tmp_path, capsys):
        flat = tmp_path / "flat.twf"
        flat.write_text("workflow flat = and{ alpha ; beta ; gamma }", encoding="utf-8")
        code, out, _ = run(capsys, "subsumes", SEQCHAIN, str(flat))
        assert code == 0
        assert out.strip() == "holds"
        code, out, _ = run(capsys, "subsumes", str(flat), SEQCHAIN)
        assert code == 1
        assert out.strip() == "unknown"

    def test_subsumes_unknown_when_second_network_has_no_model(self, tmp_path, capsys):
        # a {b} a has no model, so only an unsatisfiable first document
        # would be subsumed by the second
        first = tmp_path / "s1.twf"
        first.write_text("workflow w = a -> b\n", encoding="utf-8")
        second = tmp_path / "s2.twf"
        second.write_text("workflow w = a -> b\nconstraints { a {b} a; }\n", encoding="utf-8")
        assert run(capsys, "check", str(first))[0] == 0
        assert run(capsys, "check", str(second))[0] == 1
        code, out, _ = run(capsys, "subsumes", str(first), str(second))
        assert code == 1
        assert out.strip() == "unknown"

    def test_dot_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        code, _, _ = run(capsys, "dot", FIG2B, "-o", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith('digraph "fig2b"')

    def test_dot_into_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.dot"
        code, _, err = run(capsys, "dot", FIG2B, "-o", str(target))
        assert_error_exit(code, err)
        assert not target.parent.exists()


class TestNamesInReports:
    # 'a\<newline>b' names an activity holding a newline: the reports keep
    # one atom a line, printing a backslash as \\ and a newline as \n
    def test_newline_in_a_name_stays_on_its_line(self, tmp_path, capsys):
        doc = tmp_path / "nl.twf"
        doc.write_text("workflow w = 'a\\\nb' -> c\n", encoding="utf-8")
        assert run(capsys, "check", str(doc)) == (
            0,
            "satisfiable: yes\nwitness schedule:\n    a\\nb [0, 1]\n    c [1, 2]\n",
            "",
        )
        assert run(capsys, "scenario", str(doc)) == (
            0,
            "scenario:\n    a\\nb {b} c\nschedule:\n    a\\nb [0, 1]\n    c [2, 3]\n",
            "",
        )
        code, out, _ = run(capsys, "dot", str(doc))
        assert code == 0
        assert '[label="a\\nb", shape=box, style=rounded];' in out
        assert "a\nb" not in out

    def test_repeated_names_keep_their_suffix(self, tmp_path, capsys):
        doc = tmp_path / "rep.twf"
        doc.write_text("workflow w = 'a\\\nb' -> 'a\\\nb' -> 'p\\\\q'\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", str(doc))
        assert code == 0
        assert out.splitlines()[2:] == ["    a\\nb#1 [0, 1]", "    a\\nb#2 [1, 2]", "    p\\\\q [2, 3]"]


class TestTable:
    def test_verify_reports_full_match(self, capsys):
        code, out, _ = run(capsys, "table", "--verify")
        assert code == 0
        assert "169/169 entries match" in out

    def test_grid_mentions_every_relation(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        for token in ("b", "bi", "eq", "oi", "fi"):
            assert token in out


class TestOracleVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-verify", "--instances", "40", "--seed", "3")
        assert code == 0
        assert "0 disagreements" in out
        assert "shape refutation: 20 plans (<=4 atoms), 0 refuted a plan with a model\n" in out
        assert "entailment: 20 network pairs (<=3 variables), 0 disagreements with brute force\n" in out
        assert "result: ok" in out

    def test_instances_below_one_exits_two(self, capsys):
        for instances in ("0", "-1"):
            code, out, err = run(capsys, "oracle-verify", "--instances", instances)
            assert_error_exit(code, err)
            assert "--instances" in err
            assert out == ""


class TestDeterminism:
    def test_one_parser_serves_every_call(self, capsys):
        assert cli._parser() is cli._parser()
        first = run(capsys, "check")
        assert first[0] == 2 and first[2]
        assert run(capsys, "check", COUNTEREXAMPLE)[0] == 0
        assert run(capsys, "check") == first

    def test_check_output_is_reproducible(self, capsys):
        _, first, _ = run(capsys, "check", RECETTE, "--json")
        _, second, _ = run(capsys, "check", RECETTE, "--json")
        assert first == second

    def test_oracle_verify_reproducible(self, capsys):
        _, first, _ = run(capsys, "oracle-verify", "--instances", "25", "--seed", "9")
        _, second, _ = run(capsys, "oracle-verify", "--instances", "25", "--seed", "9")
        assert first == second

    def test_scenario_reproducible(self, capsys):
        _, first, _ = run(capsys, "scenario", RECETTE)
        _, second, _ = run(capsys, "scenario", RECETTE)
        assert first == second


class TestImport:
    def test_corpus_access_is_imported_on_first_use(self):
        # importlib.resources pulls in zipfile, tempfile and pathlib: a clean
        # interpreter (-I -S) loads it only when corpus_path is called
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import twf.cli\n"
            "assert 'importlib.resources' not in sys.modules\n"
            "from twf import corpus_path\n"
            "text = corpus_path('recette.twf').read_text(encoding='utf-8')\n"
            "assert 'workflow' in text\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr


class TestReadme:
    def test_library_snippet_runs(self, monkeypatch):
        # the snippet opens a corpus file by its path from the repository root
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
            library = handle.read().split("\n## Library\n", 1)[1]
        snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(root)
        namespace: dict = {}
        exec(snippet, namespace)
        assert namespace["check_strong_satisfiable"](namespace["ew"]) is True
        assert namespace["model"] is not None
