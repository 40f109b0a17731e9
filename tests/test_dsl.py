"""Parser, canonical printer and DOT export."""

import re

import pytest

from conftest import rand_extended
from twf import corpus_path
from twf.dsl import (
    Diagnostic,
    ParseError,
    export_dot,
    format_document,
    parse,
    parse_extended,
)
from twf.workflow import (
    Atomic,
    Conj,
    Disj,
    Loop,
    Seq,
    fingerprint,
    iter_nodes,
    normalize,
)


def node_census(w):
    counts = {"Atomic": 0, "Seq": 0, "Conj": 0, "Disj": 0, "Loop": 0}
    for _, node in iter_nodes(w):
        counts[type(node).__name__] += 1
    return counts


def constraint_set(ew):
    out = set()
    for a, b, r in ew.network.nontrivial_pairs():
        if a <= b:
            out.add((a, b, r.tokens()))
        else:
            out.add((b, a, r.inverse().tokens()))
    return out


class TestParse:
    def test_recipe_structure(self):
        doc = parse(corpus_path("recette.twf").read_text(encoding="utf-8"))
        counts = node_census(doc.extended.workflow)
        assert counts == {"Atomic": 5, "Seq": 1, "Conj": 1, "Disj": 1, "Loop": 0}
        assert doc.name == "recette"

    def test_arrow_is_sequence(self):
        ew = parse_extended("workflow w = a -> b")
        assert isinstance(ew.workflow, Seq)
        assert isinstance(ew.workflow.parts[0], Atomic)
        assert ew.workflow.parts[0].name == "a"

    def test_chain_is_one_sequence(self):
        ew = parse_extended("workflow w = a -> b -> c")
        assert isinstance(ew.workflow, Seq)
        assert [part.name for part in ew.workflow.parts] == ["a", "b", "c"]

    def test_nary_groups_desugar(self):
        ew = parse_extended("workflow w = and{ a ; b ; c }")
        assert isinstance(ew.workflow, Conj)
        assert len(ew.workflow.parts) == 3
        ew2 = parse_extended("workflow w = or{ a | b | c }")
        assert isinstance(ew2.workflow, Disj)
        assert len(ew2.workflow.parts) == 3

    def test_occurrences_renamed_at_parse(self):
        ew = parse_extended("workflow w = a -> a")
        occs = [n.occ for _, n in iter_nodes(ew.workflow) if isinstance(n, Atomic)]
        assert len(set(occs)) == 2
        # ids are distinct and rise in preorder
        ew = parse_extended("workflow w = a -> x: and{ (a -> b) ; loop{ c } } -> a")
        occs = [n.occ for _, n in iter_nodes(ew.workflow) if isinstance(n, Atomic)]
        assert occs == sorted(set(occs)) and len(occs) == 5

    def test_labels_and_quoted_atoms(self):
        ew = parse_extended("workflow w = grp: and{ 'first step' ; second }")
        assert ew.workflow.label == "grp"
        names = {n.name for _, n in iter_nodes(ew.workflow) if isinstance(n, Atomic)}
        assert names == {"first step", "second"}

    def test_empty_alternative_is_an_error(self):
        with pytest.raises(ParseError) as info:
            parse("workflow w = or{ a | }")
        diag = info.value.diagnostics[0]
        assert (diag.line, diag.column) == (1, 22)

    def test_unknown_reference_located(self):
        text = "workflow w = a -> b\nconstraints {\n  q {b} a;\n}"
        with pytest.raises(ParseError) as info:
            parse(text)
        diag = info.value.diagnostics[0]
        assert diag.line == 3
        assert "q" in diag.message

    def test_unknown_relation_located(self):
        with pytest.raises(ParseError) as info:
            parse("workflow w = a -> b\nconstraints { a {zz} b; }")
        assert "zz" in info.value.diagnostics[0].message

    def test_relation_set_is_the_union_of_its_tokens(self):
        ew = parse_extended("workflow w = and{ a ; b }\nconstraints { a {m, b, m, eq} b; }")
        assert constraint_set(ew) == {("a", "b", "b m eq")}

    def test_duplicate_label_rejected(self):
        # located at the second use of the label; a labeled atom or
        # parenthesised term starts at its label, like a labeled group
        cases = [
            ("workflow w = x: and{ a ; b } -> x: or{ c | d }", "1:33"),
            ("workflow w = x: a -> x: b", "1:22"),
            ("workflow w = x: a -> x: (c -> d)", "1:22"),
        ]
        for text, position in cases:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert [str(d) for d in info.value.diagnostics] == [
                f"{position}: label 'x' is used more than once"
            ], text

    def test_ambiguous_atom_reference(self):
        with pytest.raises(ParseError) as info:
            parse("workflow w = a -> a\nconstraints { a {b} a; }")
        assert "ambiguous" in info.value.diagnostics[0].message

    def test_loop_boundary_diagnostic(self):
        with pytest.raises(ParseError) as info:
            parse("workflow w = a -> loop{ b }\nconstraints { a {b} b; }")
        diag = info.value.diagnostics[0]
        assert "loop boundary" in diag.message
        assert diag.line == 2

    def test_error_spans_inside_text(self):
        cases = [
            "workflow w = or{ a | }",
            "workflow w = and{ a }",
            "workflow w = a ->",
            "workflow",
            "workflow w = a -> b constraints { a {b,} b; }",
            "workflow w = @",
            # an escaped newline inside a quoted name starts a new line
            "workflow w = 'a\\\nb' -> @",
        ]
        for text in cases:
            with pytest.raises(ParseError) as info:
                parse(text)
            lines = text.split("\n")
            for diag in info.value.diagnostics:
                assert 1 <= diag.line <= len(lines)
                assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1

    def test_reserved_words_need_quotes(self):
        with pytest.raises(ParseError):
            parse("workflow w = loop")
        ew = parse_extended("workflow w = 'loop' -> b")
        assert ew.workflow.parts[0].name == "loop"

    def test_comments_and_whitespace(self):
        ew = parse_extended("workflow w =  a  # trailing\n   -> b # more\n")
        assert isinstance(ew.workflow, Seq)

    def test_node_spans_recorded(self):
        doc = parse("workflow w = a -> and{ b ; c }")
        assert doc.node_spans[()] == (1, 14)
        assert all(
            span[0] == 1 and span[1] >= 14 for span in doc.node_spans.values()
        )


class TestTokenDiagnostics:
    """Lexical diagnostics carry exact line:col positions."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            # a tab counts as one column
            ("workflow w = a ->\t@", "1:19: unexpected character '@'"),
            # an escaped newline inside a quoted name starts line 2
            ("workflow w = 'a\\\nb' -> @", "2:7: unexpected character '@'"),
            ("workflow w = 'ab -> c", "1:14: unterminated string"),
            ("workflow w = 'ab\n' -> c", "1:14: unterminated string"),
            ("workflow w = 'ab\\", "1:14: unterminated string"),
            ("workflow w = a -> \x0c", "1:19: unexpected character '\\x0c'"),
            # the end of input after a trailing comment sits at its '#'
            ("workflow w = a -> # done", "1:19: expected an activity, group, or '('"),
            ("workflow w = a ->\n# done", "2:1: expected an activity, group, or '('"),
            ("", "1:1: expected keyword 'workflow'"),
            # an unknown relation is located at its own token
            ("workflow w = a -> b\nconstraints { a {zz} b; }", "2:18: unknown relation 'zz'"),
            ("workflow w = a -> b\nconstraints { a {b,eq ,B} b; }", "2:24: unknown relation 'B'"),
            (
                "workflow w = a -> b\nconstraints {\n  a {b, m,\n     during} b;\n}",
                "4:6: unknown relation 'during'",
            ),
            ("workflow w = a -> b\nconstraints { a {b, } b; }", "2:21: expected a relation token"),
        ],
    )
    def test_located(self, text, expected):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert [str(d) for d in info.value.diagnostics] == [expected]

    def test_positions_after_crlf_and_escapes(self):
        doc = parse("workflow w =\r\n  a -> 'b\\'c' ->\r\n\td")
        spans = sorted(doc.node_spans.values())
        assert spans == [(2, 3), (2, 3), (2, 8), (3, 2)]


class TestRoundTrip:
    def test_corpus_files(self):
        for name in ("fig2b.twf", "recette.twf", "counterexample.twf", "seqchain.twf"):
            text = corpus_path(name).read_text(encoding="utf-8")
            first = parse(text)
            printed = format_document(first.extended, first.name)
            second = parse(printed)
            assert fingerprint(normalize(first.extended.workflow)) == fingerprint(
                normalize(second.extended.workflow)
            ), name
            assert constraint_set(first.extended) == constraint_set(second.extended), name
            assert dict(first.extended.r_map) == dict(second.extended.r_map), name

    def test_pure_workflows_roundtrip_property(self):
        from hypothesis import given, settings

        from conftest import workflow_strategy
        from twf.extended import embed
        from twf.workflow import rename_occurrences

        @given(workflow_strategy(max_leaves=5))
        @settings(max_examples=120, deadline=None)
        def run(w):
            ew = embed(rename_occurrences(w))
            reparsed = parse(format_document(ew, "w")).extended
            assert fingerprint(normalize(ew.workflow)) == fingerprint(
                normalize(reparsed.workflow)
            )

        run()

    def test_random_documents(self, rng):
        for _ in range(40):
            ew = rand_extended(rng)
            printed = format_document(ew, "generated")
            reparsed = parse(printed).extended
            assert fingerprint(normalize(ew.workflow)) == fingerprint(
                normalize(reparsed.workflow)
            ), printed
            assert constraint_set(ew) == constraint_set(reparsed), printed

    def test_printing_is_stable(self, rng):
        for _ in range(15):
            ew = rand_extended(rng)
            once = format_document(ew, "w")
            twice = format_document(parse(once).extended, "w")
            assert once == twice

    def test_sequence_free_output_reparses(self):
        from twf.extended import sequence_free

        text = corpus_path("recette.twf").read_text(encoding="utf-8")
        free = sequence_free(parse(text).extended)
        printed = format_document(free, "recette")
        reparsed = parse(printed).extended
        assert constraint_set(free) == constraint_set(reparsed)

    @pytest.mark.parametrize(
        "text, transform",
        [
            # the sequence-free transform intersects {o} with the {b, m} of the sequence
            ("workflow w = \"a b\" -> c\nconstraints { \"a b\" {o} c; }", "seqfree"),
            ("workflow w = a -> b\nconstraints { a {b} b; a {m} b; }", "normalize"),
        ],
        ids=["seqfree", "normalize"],
    )
    def test_empty_relation_set_round_trips(self, text, transform):
        from twf.extended import sequence_free

        ew = parse_extended(text)
        if transform == "seqfree":
            ew = sequence_free(ew)
        printed = format_document(ew, "w")
        assert " {} " in printed
        reparsed = parse_extended(printed)
        assert constraint_set(reparsed) == constraint_set(ew)
        assert format_document(reparsed, "w") == printed

    def test_self_constraint_round_trips(self):
        ew = parse_extended("workflow w = or{ p | q }\nconstraints { p {b} p; }")
        assert list(ew.network.degenerate_diagonal())
        printed = format_document(ew, "w")
        reparsed = parse_extended(printed)
        assert list(reparsed.network.degenerate_diagonal())

    def test_quoting_edge_cases(self):
        cases = [
            (r"""workflow w = 'a\'b' -> 'x\\y' -> "double \" quote" """, ["a'b", "x\\y", 'double " quote']),
            ("workflow w = 'a\\\nb' -> c", ["a\nb", "c"]),
        ]
        for text, expected in cases:
            ew = parse_extended(text)
            names = [n.name for _, n in iter_nodes(ew.workflow) if isinstance(n, Atomic)]
            assert names == expected
            printed = format_document(ew, "w")
            reparsed = parse_extended(printed)
            got = [n.name for _, n in iter_nodes(reparsed.workflow) if isinstance(n, Atomic)]
            assert got == names


VALID_DOT_NODE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def check_dot_grammar(text: str) -> None:
    """A small structural validator for the DOT output we emit.

    Accepts the subset of the DOT language used by export_dot: a quoted
    digraph header, node statements with attribute lists, and edge
    statements with optional attribute lists.
    """
    assert text.startswith('digraph "')
    header, _, rest = text.partition("{")
    assert rest.rstrip().endswith("}")
    body = rest.rstrip()[:-1]
    for raw in body.strip().splitlines():
        statement = raw.strip()
        if not statement:
            continue
        assert statement.endswith(";"), statement
        statement = statement[:-1]
        if statement.startswith("rankdir"):
            continue
        if "->" in statement:
            left, _, right = statement.partition("->")
            assert VALID_DOT_NODE.match(left.strip()), statement
            right = right.strip()
            if "[" in right:
                target, _, attrs = right.partition("[")
                assert attrs.endswith("]"), statement
                right = target
            assert VALID_DOT_NODE.match(right.strip()), statement
        else:
            name, _, attrs = statement.partition("[")
            assert VALID_DOT_NODE.match(name.strip()), statement
            assert attrs.endswith("]"), statement
            # balanced quotes inside the attribute list
            assert attrs.count('"') % 2 == 0, statement


class TestDotExport:
    def test_structure_counts(self):
        text = corpus_path("fig2b.twf").read_text(encoding="utf-8")
        dot = export_dot(parse(text).extended, "fig2b")
        declarations = [line.strip() for line in dot.splitlines() if "[" in line]
        forks = [d for d in declarations if d.startswith("fork")]
        joins = [d for d in declarations if d.startswith("join")]
        choices = [d for d in declarations if d.startswith("choice")]
        merges = [d for d in declarations if d.startswith("merge")]
        assert len(forks) == len(joins) == 1
        assert len(choices) == len(merges) == 1

    def test_one_box_per_atom(self):
        text = corpus_path("recette.twf").read_text(encoding="utf-8")
        doc = parse(text)
        dot = export_dot(doc.extended, doc.name)
        boxes = [line for line in dot.splitlines() if "shape=box, style=rounded" in line]
        assert len(boxes) == 5

    def test_constraints_render_dashed(self):
        text = corpus_path("counterexample.twf").read_text(encoding="utf-8")
        dot = export_dot(parse(text).extended, "counterexample")
        dashed = [line for line in dot.splitlines() if "style=dashed" in line]
        assert len(dashed) == 3

    def test_output_passes_dot_grammar(self):
        for name in ("fig2b.twf", "recette.twf", "counterexample.twf", "seqchain.twf"):
            text = corpus_path(name).read_text(encoding="utf-8")
            doc = parse(text)
            check_dot_grammar(export_dot(doc.extended, doc.name))

    def test_random_documents_pass_dot_grammar(self, rng):
        for _ in range(15):
            ew = rand_extended(rng)
            check_dot_grammar(export_dot(ew, "generated"))
