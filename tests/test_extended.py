"""Extended workflows: validation, the sequence-free form, strong and
bounded satisfiability, and the sufficient subsumption condition."""

import copy
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_doc, rand_extended, rand_workflow, traced_peak
from twf.allen import RELATIONS, RelationSet
from twf.dsl import export_dot, format_document, parse, parse_extended
from twf.extended import (
    ExtendedWorkflow,
    InvalidExtendedWorkflowError,
    KeyResolutionError,
    LabelMapError,
    ValidationReport,
    Violation,
    _loop_context,
    check_satisfiable,
    check_strong_satisfiable,
    embed,
    find_witness,
    key_census,
    lookup_key,
    refutes_plan,
    resolve_key,
    sequence_free,
    subsumes_sufficient,
    validate,
    variable_paths,
)
from twf.qcn import Qcn
from twf.semantics import AtomBudgetError, find_model, hull_obligation
from twf.workflow import (
    Atomic,
    Conj,
    Disj,
    Loop,
    Path,
    Seq,
    SubsumptionVerdict,
    atom,
    conj,
    disj,
    fingerprint,
    iter_nodes,
    loop,
    normalize,
    rename_occurrences,
    seq,
)

B = RelationSet.parse("b")
BM = RelationSet.parse("b m")


def counterexample() -> ExtendedWorkflow:
    w = rename_occurrences(
        disj(conj(atom("alpha"), atom("beta")), conj(atom("gamma"), atom("delta")))
    )
    net = Qcn.universal(("alpha", "gamma", "delta"))
    net = net.set_constraint("alpha", "gamma", B)
    net = net.set_constraint("gamma", "delta", B)
    net = net.set_constraint("delta", "alpha", B)
    return ExtendedWorkflow(w, net, {"alpha": "alpha", "gamma": "gamma", "delta": "delta"})


# ---------------------------------------------------------------------------
# Reference: validation as it was before it read duplicate labels from the
# census, walking the tree for labels and to each constrained node twice


def reference_validate(ew: ExtendedWorkflow, census: Mapping[str, list[Path]]) -> ValidationReport:
    """:func:`validate` with the tree's :func:`key_census` already built."""
    violations: list[Violation] = []
    seen_labels: dict[str, Path] = {}
    for path, node in iter_nodes(ew.workflow):
        if node.label is not None and seen_labels.setdefault(node.label, path) != path:
            violations.append(
                Violation(
                    "duplicate-label",
                    f"label {node.label!r} is used more than once",
                    paths=(seen_labels[node.label], path),
                )
            )

    key_paths: dict[str, Path] = {}
    for key in ew.r_map:
        try:
            key_paths[key] = lookup_key(census, key)
        except KeyResolutionError as exc:
            violations.append(Violation("unresolved-key", str(exc)))

    by_path: dict[Path, str] = {}
    for key, path in key_paths.items():
        if path in by_path:
            violations.append(
                Violation(
                    "non-injective",
                    f"keys {by_path[path]!r} and {key!r} denote the same node",
                    paths=(path,),
                )
            )
        by_path[path] = key
    variables: dict[str, str] = {}
    for key, var in ew.r_map.items():
        if var in variables:
            violations.append(
                Violation(
                    "non-injective",
                    f"keys {variables[var]!r} and {key!r} share the variable {var!r}",
                )
            )
        variables[var] = key

    var_paths = {ew.r_map[key]: path for key, path in key_paths.items()}
    for vi, vj, _ in ew.network.nontrivial_pairs():
        missing = [v for v in (vi, vj) if v not in var_paths]
        if missing:
            for v in dict.fromkeys(missing):
                violations.append(
                    Violation(
                        "unmapped-variable",
                        f"constrained variable {v!r} is not attached to any subworkflow",
                        constraint=(vi, vj),
                    )
                )
            continue
        pi, pj = var_paths[vi], var_paths[vj]
        if _loop_context(ew.workflow, pi) != _loop_context(ew.workflow, pj):
            violations.append(
                Violation(
                    "loop-boundary",
                    f"constraint between {vi!r} and {vj!r} crosses a loop boundary",
                    constraint=(vi, vj),
                    paths=(pi, pj),
                )
            )
    return ValidationReport(tuple(violations))


# The label and atom-name pools overlap, so labels repeat and clash with
# atom names; "ghost" keys no node and "u" is never mapped.
_NAMES = ("a", "b", "c", "d", "e", "f", "g", "x", "y")
_LABELS = ("a", "x", "y", "z")
_VARIABLES = ("v0", "v1", "v2", "v3", "v4")


def _labeled(kind, parts, label):
    return Loop(parts[0], label) if kind is Loop else kind(tuple(parts), label)


_LABEL_OR_NONE = st.sampled_from((None,) * 6 + _LABELS)
_TREES = st.recursive(
    st.builds(Atomic, st.sampled_from(_NAMES), st.just(0), _LABEL_OR_NONE),
    lambda kids: st.builds(
        _labeled,
        st.sampled_from((Seq, Conj, Disj, Loop)),
        st.lists(kids, min_size=2, max_size=3),
        _LABEL_OR_NONE,
    ),
    max_leaves=6,
)
# a loop beside the rest of the tree, so that constraints may cross into it
_ROOTS = st.builds(
    _labeled,
    st.sampled_from((Seq, Conj, Disj)),
    st.tuples(_TREES, st.builds(Loop, _TREES, _LABEL_OR_NONE)),
    _LABEL_OR_NONE,
)


@st.composite
def _clashing_extended(draw) -> ExtendedWorkflow:
    tree = draw(_ROOTS)
    # mostly keys that denote one node, else ambiguous ones, names of labeled
    # atoms, and "ghost"
    nodes = [node for _, node in iter_nodes(tree)]
    pool = {node.label for node in nodes} | {node.name for node in nodes if isinstance(node, Atomic)}
    unique = [key for key, paths in key_census(tree).items() if len(paths) == 1]
    key = st.sampled_from(sorted(pool - {None}) + ["ghost"])
    if unique:
        key = st.one_of(key, st.sampled_from(unique), st.sampled_from(unique))
    keys = draw(st.lists(key, unique=True, min_size=1, max_size=5))
    r_map = {key: draw(st.sampled_from(_VARIABLES)) for key in keys}
    ends = st.sampled_from(sorted(set(r_map.values())) * 3 + ["u"])
    network = Qcn.universal(_VARIABLES + ("u",))
    for _ in range(draw(st.integers(0, 5))):
        rels = draw(st.lists(st.sampled_from(RELATIONS), min_size=1, max_size=3))
        network = network.set_constraint(draw(ends), draw(ends), RelationSet.of(*rels))
    return ExtendedWorkflow(rename_occurrences(tree), network, r_map)


class TestValidate:
    def test_relation_to_the_loop_itself_is_fine(self):
        w = rename_occurrences(Seq((atom("alpha"), Loop(atom("beta"), label="lp"))))
        net = Qcn.universal(("alpha", "lp")).set_constraint("alpha", "lp", B)
        ew = ExtendedWorkflow(w, net, {"alpha": "alpha", "lp": "lp"})
        assert validate(ew).ok

    def test_crossing_the_loop_boundary_is_reported(self):
        w = rename_occurrences(Seq((atom("alpha"), Loop(atom("beta")))))
        net = Qcn.universal(("alpha", "beta")).set_constraint("alpha", "beta", B)
        ew = ExtendedWorkflow(w, net, {"alpha": "alpha", "beta": "beta"})
        report = validate(ew)
        assert not report.ok
        violation = report.violations[0]
        assert violation.kind == "loop-boundary"
        assert violation.constraint == ("alpha", "beta")
        assert len(violation.paths) == 2

    def test_constraints_within_one_loop_are_fine(self):
        w = rename_occurrences(Loop(Seq((atom("x"), atom("y")))))
        net = Qcn.universal(("x", "y")).set_constraint("x", "y", B)
        ew = ExtendedWorkflow(w, net, {"x": "x", "y": "y"})
        assert validate(ew).ok

    def test_duplicate_labels_reported(self):
        w = Conj((Atomic("a", 1, label="x"), Atomic("b", 2, label="x")))
        report = validate(ExtendedWorkflow(w, Qcn.universal(()), {}))
        assert any(v.kind == "duplicate-label" for v in report.violations)

    def test_unmapped_variable_reported(self):
        w = rename_occurrences(atom("alpha"))
        net = Qcn.universal(("alpha", "ghost")).set_constraint("alpha", "ghost", B)
        ew = ExtendedWorkflow(w, net, {"alpha": "alpha"})
        report = validate(ew)
        assert any(v.kind == "unmapped-variable" for v in report.violations)

    def test_ambiguous_key_reported(self):
        w = rename_occurrences(conj(atom("alpha"), atom("alpha")))
        net = Qcn.universal(("alpha",))
        ew = ExtendedWorkflow(w, net, {"alpha": "alpha"})
        report = validate(ew)
        assert any(v.kind == "unresolved-key" for v in report.violations)

    def test_non_injective_reported(self):
        w = rename_occurrences(conj(atom("a"), atom("b")))
        net = Qcn.universal(("va", "vb"))
        ew = ExtendedWorkflow(w, net, {"a": "va", "b": "va"})
        report = validate(ew)
        assert any(v.kind == "non-injective" for v in report.violations)

    def test_resolve_key_errors(self):
        w = rename_occurrences(conj(atom("a"), atom("a")))
        with pytest.raises(KeyResolutionError):
            resolve_key(w, "missing")
        with pytest.raises(KeyResolutionError):
            resolve_key(w, "a")

    @given(_clashing_extended())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference(self, ew):
        assert validate(ew) == reference_validate(ew, key_census(ew.workflow))


class TestSequenceFree:
    def test_three_chain_gives_exactly_two_constraints(self):
        ew = embed(rename_occurrences(seq(atom("alpha"), atom("beta"), atom("gamma"))))
        free = sequence_free(ew)
        expected_tree = normalize(
            Conj((Atomic("alpha"), Conj((Atomic("beta"), Atomic("gamma")))))
        )
        assert fingerprint(free.workflow) == fingerprint(expected_tree)
        constraints = {(a, b, r.tokens()) for a, b, r in free.network.nontrivial_pairs()}
        assert constraints == {("alpha", "beta", "b m"), ("beta", "gamma", "b m")}

    def test_atom_unchanged(self):
        free = sequence_free(embed(rename_occurrences(atom("alpha"))))
        assert isinstance(free.workflow, Atomic)
        assert not list(free.network.nontrivial_pairs())

    def test_sequence_inside_loop(self):
        ew = embed(rename_occurrences(loop(seq(atom("alpha"), atom("beta")))))
        free = sequence_free(ew)
        assert fingerprint(free.workflow) == fingerprint(
            normalize(Loop(Conj((Atomic("alpha"), Atomic("beta")))))
        )
        constraints = {(a, b, r.tokens()) for a, b, r in free.network.nontrivial_pairs()}
        assert constraints == {("alpha", "beta", "b m")}

    def test_composite_left_part_gets_a_variable(self):
        ew = embed(rename_occurrences(seq(conj(atom("a"), atom("b")), atom("c"))))
        free = sequence_free(ew)
        constraints = list(free.network.nontrivial_pairs())
        assert len(constraints) == 1
        left_var, right_var, rels = constraints[0]
        assert rels == BM
        assert {left_var, right_var} == {"n1", "c"}
        # the minted key resolves to the conjunction node
        path = resolve_key(free.workflow, "n1")
        node = dict(iter_nodes(free.workflow))[path]
        assert isinstance(node, Conj)

    def test_idempotent(self, rng):
        # labels that clash with atom names, keyed or not by a constraint
        clashes = [
            "workflow w = and{ y: a -> b ; y }",
            "workflow w = y: a -> y -> b",
            "workflow w = and{ a: b -> c ; b ; a }",
            "workflow w = x: and{ a ; b } -> or{ x | c }",
            "workflow w = loop{ y: a -> b } -> and{ y ; c }",
            "workflow w = and{ x: a -> b ; x ; c }\nconstraints { c {b} b; }",
        ]
        documents = [parse_extended(text) for text in clashes]
        for ew in documents + [rand_extended(rng) for _ in range(15)]:
            once = sequence_free(ew)
            assert validate(once).ok
            twice = sequence_free(once)
            assert fingerprint(once.workflow) == fingerprint(twice.workflow)
            assert list(once.network.nontrivial_pairs()) == list(
                twice.network.nontrivial_pairs()
            )

    def test_new_key_gets_a_variable_of_its_own(self):
        # `x` is mapped to the variable `a`, so the anchor atom `a` must not
        # be given `a` as its variable as well
        w = rename_occurrences(
            Seq((Conj((Atomic("p"), Atomic("q")), label="x"), Atomic("a"), Atomic("o")))
        )
        net = Qcn.universal(("a", "other")).set_constraint("a", "other", B)
        ew = ExtendedWorkflow(w, net, {"x": "a", "o": "other"})
        assert validate(ew).ok
        assert check_satisfiable(ew)
        free = sequence_free(ew)
        assert validate(free).ok
        assert free.r_map == {"x": "a", "o": "other", "a": "a2"}
        assert check_strong_satisfiable(ew)

    def test_no_seq_nodes_and_one_constraint_per_seq(self, rng):
        for _ in range(40):
            w = rand_workflow(rng, max_depth=3, max_leaves=4, unique_names=True)
            seq_count = sum(1 for _, n in iter_nodes(w) if isinstance(n, Seq))
            free = sequence_free(embed(w))
            assert not any(isinstance(n, Seq) for _, n in iter_nodes(free.workflow))
            added = len(list(free.network.nontrivial_pairs()))
            assert added == seq_count

    def test_preserves_bounded_satisfiability(self, rng):
        checked = 0
        for _ in range(60):
            ew = rand_extended(rng, max_loops=1, max_leaves=3)
            free = sequence_free(ew)
            try:
                before = check_satisfiable(ew, unroll_bound=2)
                after = check_satisfiable(free, unroll_bound=2)
            except AtomBudgetError:
                continue
            assert before == after
            checked += 1
        assert checked >= 50

    def test_memory_stays_far_below_the_dense_matrix(self):
        # 3 000 variables: an n×n matrix of their relations alone is 9 M
        # entries (72 MB of pointers), so a network that keeps only its
        # 2 999 edges stays under the bound with room to spare
        ew = parse(chain_doc(3000)).extended
        out = []
        assert traced_peak(lambda: out.append(format_document(sequence_free(ew)))) < 25 * 2**20
        assert traced_peak(lambda: export_dot(parse(out[0]).extended)) < 25 * 2**20


class TestMintedLabels:
    """Texts of `seqfree` recorded before keys resolved from a census."""

    @staticmethod
    def seqfree(text: str) -> str:
        return format_document(sequence_free(parse_extended(text)), "m")

    def test_minted_atom_leaves_its_name(self):
        # the first n1 is ambiguous and is minted n2; the second n1 is then
        # the only node answering to its name and keeps it
        assert self.seqfree("workflow m = ( a2 -> n1 ) -> n1\n") == (
            "workflow m = and{ a2 ; n1 ; n2: n1 }\n"
            "constraints {\n"
            "    a2 {b, m} n2;\n"
            "    n2 {b, m} n1;\n"
            "}\n"
        )

    def test_names_of_labeled_atoms_are_not_minted(self):
        text = "workflow m = and{ p ; q } -> x: n1 -> or{ r | s }\nconstraints {\n    x {b, m} p;\n}\n"
        assert self.seqfree(text) == (
            "workflow m = and{ x: n1 ; n2: and{ p ; q } ; n3: or{ r | s } }\n"
            "constraints {\n"
            "    x {b, m} p;\n"
            "    x {bi, mi} n2;\n"
            "    x {b, m} n3;\n"
            "}\n"
        )


    def test_label_keyed_by_a_variable_leaves_atoms_of_its_name(self):
        # y labels the anchor a and now keys its variable; the atom y is
        # minted a label so that y denotes one node
        assert self.seqfree("workflow m = and{ y: a -> b ; y }\n") == (
            "workflow m = and{ y: a ; b ; n1: y }\n"
            "constraints {\n"
            "    y {b, m} b;\n"
            "}\n"
        )

    def test_atom_minted_as_an_anchor_is_not_minted_again(self):
        # the atom y before c is minted n1 as an anchor; once the label y keys
        # a variable, only the other atom y is minted a label
        assert self.seqfree("workflow m = and{ y: a -> b ; y -> c ; y }\n") == (
            "workflow m = and{ y: a ; b ; c ; n1: y ; n2: y }\n"
            "constraints {\n"
            "    y {b, m} b;\n"
            "    n1 {b, m} c;\n"
            "}\n"
        )

    @pytest.mark.parametrize(
        "text", ["workflow m = and{ y: a -> b ; y }\n", "workflow m = a -> a -> b\n"]
    )
    def test_census_is_read_not_spent(self, text):
        # minting labels must leave the value's census as parse took it
        ew = parse_extended(text)
        before = copy.deepcopy(ew.census)
        first = format_document(sequence_free(ew), "m")
        assert format_document(sequence_free(ew), "m") == first
        assert ew.census == before
        fresh = ExtendedWorkflow(ew.workflow, ew.network, ew.r_map)
        assert format_document(sequence_free(fresh), "m") == first


class TestStrongSatisfiability:
    def test_plain_workflows_are_strongly_satisfiable(self, rng):
        for _ in range(20):
            w = rand_workflow(rng, max_depth=3, max_leaves=4)
            assert check_strong_satisfiable(embed(w))

    def test_counterexample_strong_false_plain_true(self):
        ew = counterexample()
        assert validate(ew).ok
        assert not check_strong_satisfiable(ew)
        assert check_satisfiable(ew)

    def test_strong_implies_plain_on_regular_instances(self, rng):
        from conftest import rand_regular_extended

        confirmed = 0
        for _ in range(40):
            ew = rand_regular_extended(rng)
            if check_strong_satisfiable(ew):
                try:
                    assert check_satisfiable(ew, unroll_bound=2)
                    confirmed += 1
                except AtomBudgetError:
                    pass
        assert confirmed >= 20

    def test_network_only_strong_check_can_overapprove(self):
        # The sequence-free network names the choice node but cannot tie
        # its interval to the hull of the branch that actually runs, so a
        # consistent network does not guarantee a model once constraints
        # pin every branch against the sequence order.  This documents the
        # divergence on the smallest instance found.
        w = rename_occurrences(Seq((atom("a"), disj(atom("b"), atom("c")))))
        net = Qcn.universal(("a", "b", "c"))
        net = net.set_constraint("a", "b", RelationSet.parse("bi d"))
        net = net.set_constraint("a", "c", RelationSet.parse("mi si d f"))
        ew = ExtendedWorkflow(w, net, {"a": "a", "b": "b", "c": "c"})
        assert validate(ew).ok
        assert check_strong_satisfiable(ew)
        assert not check_satisfiable(ew)


class TestRefutesPlan:
    def test_before_cycle_is_refuted(self):
        cycle = [hull_obligation([i], [(i + 1) % 3], B) for i in range(3)]
        assert refutes_plan(3, [], cycle)
        assert not refutes_plan(3, [], cycle[:2])

    def test_sequence_pairs_are_before_or_meets(self):
        # a ends before b starts, so b {b} a cannot hold
        assert refutes_plan(2, [(1, 2)], [hull_obligation([1], [0], B)])
        assert not refutes_plan(2, [(1, 2)], [hull_obligation([0], [1], RelationSet.parse("m"))])

    def test_a_group_hull_holds_its_members(self):
        # the hull of {a, b} cannot lie during a, and a cannot come before
        # it; it can start a's hull
        assert refutes_plan(2, [], [hull_obligation([0, 1], [0], RelationSet.parse("d"))])
        assert refutes_plan(2, [], [hull_obligation([0], [0, 1], B)])
        assert not refutes_plan(2, [], [hull_obligation([0], [0, 1], RelationSet.parse("s"))])

    def test_first_model_is_the_same_with_and_without_refutation(self, rng):
        def outcome(ew, refute):
            try:
                model = find_model(ew.workflow, ew.network, variable_paths(ew), refute=refute)
            except AtomBudgetError as exc:
                return str(exc)
            if model is None:
                return None
            rows = [(a.name, a.source, a.iterations, iv) for a, iv in model.atom_intervals()]
            return model.resolution, rows

        for _ in range(40):
            ew = rand_extended(rng, max_constraints=3)
            assert outcome(ew, refutes_plan) == outcome(ew, None)


class TestCheckSatisfiable:
    def test_empty_network_always_satisfiable(self, rng):
        for _ in range(15):
            w = rand_workflow(rng, max_depth=3, max_leaves=4)
            assert check_satisfiable(embed(w), unroll_bound=2)

    def test_reflexive_before_unsatisfiable(self):
        w = rename_occurrences(atom("alpha"))
        net = Qcn.universal(("alpha",)).set_constraint("alpha", "alpha", B)
        ew = ExtendedWorkflow(w, net, {"alpha": "alpha"})
        assert not check_satisfiable(ew)

    def test_witness_is_a_model(self):
        ew = counterexample()
        model = find_witness(ew)
        from twf.semantics import check_model

        assert check_model(model.instance, model.assignment, ew.network, variable_paths(ew))

    def test_invalid_input_rejected(self):
        w = rename_occurrences(Seq((atom("alpha"), Loop(atom("beta")))))
        net = Qcn.universal(("alpha", "beta")).set_constraint("alpha", "beta", B)
        ew = ExtendedWorkflow(w, net, {"alpha": "alpha", "beta": "beta"})
        with pytest.raises(InvalidExtendedWorkflowError):
            check_satisfiable(ew)


class TestSubsumesSufficient:
    def test_identical_workflow_refined_network(self):
        w = rename_occurrences(conj(atom("a"), atom("b")))
        n1 = Qcn.universal(("a", "b")).set_constraint("a", "b", RelationSet.parse("m"))
        n2 = Qcn.universal(("a", "b")).set_constraint("a", "b", BM)
        r = {"a": "a", "b": "b"}
        ew1 = ExtendedWorkflow(w, n1, r)
        ew2 = ExtendedWorkflow(rename_occurrences(w), n2, r)
        assert subsumes_sufficient(ew1, ew2) is SubsumptionVerdict.HOLDS

    def test_sequence_to_conjunction_with_weakened_network(self):
        w1 = rename_occurrences(seq(atom("a"), atom("b")))
        w2 = rename_occurrences(conj(atom("a"), atom("b")))
        n1 = Qcn.universal(("a", "b")).set_constraint("a", "b", RelationSet.parse("m"))
        n2 = Qcn.universal(("a", "b")).set_constraint("a", "b", BM)
        ew1 = ExtendedWorkflow(w1, n1, {"a": "a", "b": "b"})
        ew2 = ExtendedWorkflow(w2, n2, {"a": "a", "b": "b"})
        assert subsumes_sufficient(ew1, ew2) is SubsumptionVerdict.HOLDS

    def test_unrelated_atoms_unknown(self):
        ew1 = embed(rename_occurrences(atom("a")))
        ew2 = embed(rename_occurrences(atom("z")))
        assert subsumes_sufficient(ew1, ew2) is SubsumptionVerdict.UNKNOWN

    def test_reflexive(self, rng):
        for _ in range(10):
            ew = rand_extended(rng)
            assert subsumes_sufficient(ew, ew) is SubsumptionVerdict.HOLDS

    def test_incompatible_maps_rejected(self):
        w = rename_occurrences(atom("a"))
        ew1 = ExtendedWorkflow(w, Qcn.universal(("x",)), {"a": "x"})
        ew2 = ExtendedWorkflow(rename_occurrences(atom("a")), Qcn.universal(("y",)), {"a": "y"})
        with pytest.raises(LabelMapError):
            subsumes_sufficient(ew1, ew2)

    def test_entailment_failure_gives_unknown(self):
        w = rename_occurrences(conj(atom("a"), atom("b")))
        n1 = Qcn.universal(("a", "b")).set_constraint("a", "b", BM)
        n2 = Qcn.universal(("a", "b")).set_constraint("a", "b", B)
        ew1 = ExtendedWorkflow(w, n1, {"a": "a", "b": "b"})
        ew2 = ExtendedWorkflow(rename_occurrences(w), n2, {"a": "a", "b": "b"})
        assert subsumes_sufficient(ew1, ew2) is SubsumptionVerdict.UNKNOWN


class TestEmbed:
    def test_embedding_is_empty_network(self):
        ew = embed(rename_occurrences(atom("alpha")))
        assert not list(ew.network.nontrivial_pairs())
        assert not ew.r_map
        assert validate(ew).ok

    def test_embedded_workflows_always_satisfiable(self, rng):
        for _ in range(10):
            w = rand_workflow(rng, max_depth=3, max_leaves=3)
            assert check_satisfiable(embed(w), unroll_bound=2)

    def test_sequence_free_of_embedded_pair(self):
        free = sequence_free(embed(rename_occurrences(seq(atom("a"), atom("b")))))
        assert len(list(free.network.nontrivial_pairs())) == 1
