"""The exit-code contract on large and hostile inputs.

Every command answers 0, 1 or 2; no input makes an exception escape.  Trees
are as deep as the source's brackets, which the parser caps, so long chains
and wide groups stay shallow.
"""

import contextlib
import io
import os
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twf import extended, workflow
from twf.cli import main
from twf.dsl import MAX_NESTING, export_dot, parse


def run(path, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, text, name="doc.twf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def chain_text(n):
    return f"workflow c = {' -> '.join(f'a{i}' for i in range(n))}\n"


def constrained_group_text(n):
    """An and{} of n atoms with a {b} constraint between each neighbour pair."""
    lines = "".join(f"    a{i} {{b}} a{i + 1};\n" for i in range(n - 1))
    atoms = " ; ".join(f"a{i}" for i in range(n))
    return f"workflow g = and{{ {atoms} }}\nconstraints {{\n{lines}}}\n"


class TestLargeInputs:
    def test_long_chain(self, tmp_path):
        steps = [f"a{i}" for i in range(10_000)]
        path = write(tmp_path, f"workflow c = {' -> '.join(steps)}\n")
        code, out, _ = run(path, "normalize")
        assert code == 0
        assert out == f"workflow c = {' -> '.join(steps)}\n"
        code, out, _ = run(path, "dot")
        assert code == 0
        assert out.count("shape=box, style=rounded") == 10_000
        # the chain takes ids 0..9998 and its steps 9999..19998
        assert "a19997 -> a19998;" in out

    def test_wide_group(self, tmp_path):
        parts = [f"a{i:04d}" for i in range(1200)]
        path = write(tmp_path, f"workflow g = and{{ {' ; '.join(reversed(parts))} }}\n")
        code, out, _ = run(path, "normalize")
        assert code == 0
        assert out == f"workflow g = and{{ {' ; '.join(parts)} }}\n"
        code, out, _ = run(path, "dot")
        assert code == 0
        assert out.count("[shape=box, style=filled") == 2 * 1199

    def test_long_chain_sequence_free(self, tmp_path):
        path = write(tmp_path, chain_text(1500))
        code, out, _ = run(path, "seqfree")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.endswith(";") for line in lines) == 1499
        assert "    a1498 {b, m} a1499;" in lines

    def test_subsumes_reversed_long_chain(self, tmp_path):
        # the reversed order is refuted before the rewrite search starts
        steps = [f"a{i}" for i in range(300)]
        chain = write(tmp_path, f"workflow c = {' -> '.join(steps)}\n", "chain.twf")
        reverse = write(tmp_path, f"workflow c = {' -> '.join(reversed(steps))}\n", "reverse.twf")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["subsumes", str(chain), str(reverse)])
        assert (code, out.getvalue()) == (1, "unknown\n")

    def test_wide_group_with_constraints(self, tmp_path):
        path = write(tmp_path, constrained_group_text(1500))
        code, out, _ = run(path, "normalize")
        assert code == 0
        assert sum(line.endswith(";") for line in out.splitlines()) == 1499
        code, out, _ = run(path, "dot")
        assert code == 0
        assert out.count("style=dashed") == 1499

    def test_many_nested_choices(self, tmp_path):
        # 2**100 combinations of branches, but only 101 execution shapes
        body = "x"
        for _ in range(100):
            body = f"or{{ x | {body} }}"
        path = write(tmp_path, f"workflow n = {body}\n")
        code, out, _ = run(path, "check")
        assert code == 0
        assert out == "satisfiable: yes\nwitness schedule:\n    x [0, 1]\n"

    def test_deep_scenario_search(self, tmp_path):
        # 50 unordered atoms and 25 universal constraints: the search fixes
        # about 1 200 edges one after the other
        atoms = " ; ".join(f"a{i}" for i in range(50))
        universal = "b, m, o, s, d, f, eq, bi, mi, oi, si, di, fi"
        lines = "".join(f"    a{2 * k} {{{universal}}} a{2 * k + 1};\n" for k in range(25))
        path = write(tmp_path, f"workflow u = and{{ {atoms} }}\nconstraints {{\n{lines}}}\n")
        code, out, _ = run(path, "strong-check")
        assert (code, out) == (0, "strongly-satisfiable: yes\n")
        code, out, _ = run(path, "scenario")
        assert code == 0
        assert out.startswith("scenario:")

    def test_subsumes_with_free_variables(self, tmp_path):
        # a4..a6 are free in the first network; listing its scenarios to
        # decide entailment would take minutes
        chain = f"workflow c = {' -> '.join(f'a{i}' for i in range(7))}\n"
        universal = "b, m, o, s, d, f, eq, bi, mi, oi, si, di, fi"
        tight = "constraints { a0 {b} a1; a1 {b} a2; a2 {b} a3; }\n"
        free = "".join(f" a{i} {{{universal}}} a{i + 1};" for i in range(3, 6))
        first = write(tmp_path, chain + tight, "first.twf")
        second = write(tmp_path, chain + f"constraints {{ a0 {{b}} a3;{free} }}\n", "second.twf")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["subsumes", str(first), str(second)])
        assert (code, out.getvalue()) == (0, "holds\n")

    def test_deep_parentheses_are_a_located_error(self, tmp_path):
        path = write(tmp_path, "workflow p = " + "(" * 1000 + "a" + ")" * 1000 + "\n")
        for command in ("normalize", "dot", "check"):
            code, out, err = run(path, command)
            assert code == 2
            assert out == ""
            # the bracket that opens level MAX_NESTING + 1
            column = len("workflow p = ") + MAX_NESTING + 1
            assert err == (
                f"{path}:1:{column}: brackets nest deeper than {MAX_NESTING} levels\n"
            )

    def test_nesting_cap_is_exact(self, tmp_path):
        kinds = {
            "(": ("(", ")"),
            "and": ("and{ x ; ", " }"),
            "or": ("or{ x | ", " }"),
            "loop": ("loop{ ", " }"),
        }
        for kind, (opener, closer) in kinds.items():
            for depth, expected in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
                body = opener * depth + "a -> b" + closer * depth
                path = write(tmp_path, f"workflow n = {body}\n", f"{kind}{depth}.twf")
                for command in ("normalize", "dot"):
                    assert run(path, command)[0] == expected, (kind, depth, command)


# ---------------------------------------------------------------------------
# Random inputs

COMMANDS = ("normalize", "dot", "seqfree", "strong-check")

TOKENS = [
    "workflow", "w", "=", "a", "b", "c", "'a b'", '"q"', "->", "and{", "or{",
    "loop{", "(", ")", "{", "}", ";", "|", ":", ",", "x:", "constraints",
    "b", "m", "eq", "di", "#", "\n", "@", "'", "and", "or", "loop",
]

token_soups = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join),
    st.lists(st.sampled_from(TOKENS), max_size=40).map(lambda ts: "workflow w = " + " ".join(ts)),
)


def expressions(names="abcd"):
    return st.recursive(
        st.sampled_from(list(names)),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=4).map(" -> ".join),
            st.lists(inner, min_size=2, max_size=4).map(lambda ps: "and{ " + " ; ".join(ps) + " }"),
            st.lists(inner, min_size=2, max_size=4).map(lambda ps: "or{ " + " | ".join(ps) + " }"),
            inner.map(lambda p: f"loop{{ {p} }}"),
            inner.map(lambda p: f"( {p} )"),
            st.tuples(st.sampled_from(["g", "h", "k"]), inner).map(lambda lp: f"{lp[0]}: ( {lp[1]} )"),
        ),
        max_leaves=6,
    )


@st.composite
def documents(draw):
    body = draw(expressions())
    depth = draw(st.one_of(st.just(0), st.integers(1, 3 * MAX_NESTING)))
    body = "(" * depth + body + ")" * depth
    refs = st.sampled_from(["a", "b", "c", "d", "g", "h", "k"])
    rels = st.lists(st.sampled_from(["b", "bi", "m", "mi", "o", "s", "d", "f", "eq"]), min_size=1, max_size=4)
    constraints = draw(st.lists(st.tuples(refs, rels, refs), max_size=3))
    text = f"workflow r = {body}\n"
    if constraints:
        lines = [f"    {x} {{{', '.join(r)}}} {y};" for x, r, y in constraints]
        text += "constraints {\n" + "\n".join(lines) + "\n}\n"
    return text


def assert_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.twf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command in COMMANDS:
            code, _, err = run(path, command)
            assert code in (0, 1, 2), (command, code)
            if code == 2:
                assert re.match(r"(.+:\d+:\d+: |error: )", err), (command, err)


@given(token_soups)
@settings(max_examples=150, deadline=None)
def test_token_soups_keep_the_exit_code_contract(text):
    assert_contract(text)


@given(documents())
@settings(max_examples=150, deadline=None)
def test_documents_keep_the_exit_code_contract(text):
    assert_contract(text)


@pytest.fixture
def walk_steps(monkeypatch):
    """Counts the calls of ``workflow.children``, the step of every tree walk."""
    calls = [0]
    original = workflow.children

    def counted(node):
        calls[0] += 1
        return original(node)

    for module in (workflow, extended):
        monkeypatch.setattr(module, "children", counted)
    return calls


class TestLinearWork:
    """Keys resolve from one census per tree, so the number of walk steps
    grows with the tree, not with the tree times the number of references
    (about 90 000 or more steps for these 300-part documents)."""

    N = 300

    def test_sequence_free_on_a_chain(self, walk_steps):
        ew = parse(chain_text(self.N)).extended
        walk_steps[0] = 0
        free = extended.sequence_free(ew)
        assert len(list(free.network.nontrivial_pairs())) == self.N - 1
        assert walk_steps[0] <= 10 * (self.N + 1)

    def test_parse_and_dot_of_many_references(self, walk_steps):
        doc = parse(constrained_group_text(self.N))
        assert walk_steps[0] <= 10 * (self.N + 1)
        walk_steps[0] = 0
        assert export_dot(doc.extended).count("style=dashed") == self.N - 1
        assert walk_steps[0] <= 10 * (self.N + 1)

    def test_parsed_value_is_not_walked_again(self, walk_steps):
        # parse took the census; reading the references costs no walk
        doc = parse(constrained_group_text(self.N))
        walk_steps[0] = 0
        assert len(extended.variable_paths(doc.extended)) == self.N
        assert walk_steps[0] == 0
        export_dot(doc.extended)
        assert walk_steps[0] == 0

    def test_sequence_free_reuses_the_parsed_census(self, walk_steps):
        ew = parse(chain_text(self.N)).extended
        walk_steps[0] = 0
        extended.sequence_free(ew)
        parsed = walk_steps[0]
        walk_steps[0] = 0
        extended.sequence_free(extended.ExtendedWorkflow(ew.workflow, ew.network, ew.r_map))
        assert walk_steps[0] >= parsed + self.N

    @pytest.mark.parametrize("command", ["check", "dot", "seqfree", "strong-check", "scenario"])
    def test_one_census_and_validation_per_parsed_file(self, tmp_path, monkeypatch, command):
        calls = {"key_census": 0, "validate": 0}

        def counted(name, original):
            def call(arg):
                calls[name] += 1
                return original(arg)

            return call

        for name in calls:
            original = getattr(extended, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "twf" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name, original))
        path = write(
            tmp_path,
            "workflow w = x: and{ a ; b } -> l: loop{ c -> d }\n"
            "constraints { a {b, m} b; x {m} l; c {b} d; }\n",
        )
        code, _, err = run(path, command)
        assert code in (0, 1), err
        assert calls == {"key_census": 1, "validate": 1}
