"""Workflow trees: subworkflows, renaming, unrolling, resolutions,
normal forms, substitution and syntactic subsumption."""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_instances,
    executions_included,
    rand_workflow,
    traced_peak,
    workflow_strategy,
)
from twf import workflow
from twf.workflow import (
    Atomic,
    Conj,
    Disj,
    Loop,
    PathError,
    Resolution,
    Seq,
    SubsumptionVerdict,
    _generalizations,
    _norm,
    _ordered_pairs,
    _positions,
    _within_order_facts,
    atom,
    atoms,
    children,
    conj,
    disj,
    fingerprint,
    fresh_occ,
    iter_nodes,
    loop,
    node_at,
    normalize,
    proper_subworkflows,
    relabel,
    rename_occurrences,
    resolutions,
    resolve_traced,
    seq,
    shape_census,
    substitute,
    subsumes_syntactic,
    subworkflows,
    unroll,
    with_children,
)


@st.composite
def labelled_workflows(draw, max_leaves=5):
    """Random workflows with loops, up to two of whose nodes carry a label."""
    w = draw(workflow_strategy(max_leaves=max_leaves))
    paths = draw(st.sets(st.sampled_from([p for p, _ in iter_nodes(w)]), max_size=2))
    return relabel(w, {p: f"L{k}" for k, p in enumerate(sorted(paths))})


def count_generalizations(monkeypatch):
    """Count the states the subsumption search expands."""
    calls = [0]
    original = workflow._generalizations

    def counted(w):
        calls[0] += 1
        return original(w)

    monkeypatch.setattr(workflow, "_generalizations", counted)
    return calls


def shapes(w, bound):
    """Normalized fingerprints of all resolved executions up to the bound."""
    return {fingerprint(normalize(resolve_traced(w, r)[0])) for r, _ in resolutions(w, bound)}


def executed_points(w, choices):
    """Paths of the disjunctions and loops reached from the root when every
    disjunction takes the branch ``choices`` gives it."""
    points, stack = set(), [((), w)]
    while stack:
        path, node = stack.pop()
        steps = range(len(children(node)))
        if isinstance(node, (Disj, Loop)):
            points.add(path)
        if isinstance(node, Disj):
            steps = [choices[path]]
        stack += [(path + (i,), children(node)[i]) for i in steps]
    return points


def reference_resolutions(w, bound):
    """Brute force: the whole product over every disjunction, then every
    loop, each in preorder; the first combination of each distinct
    assignment to the executed points is kept, restricted to them."""
    disjs = [(p, n) for p, n in iter_nodes(w) if isinstance(n, Disj)]
    loops = [p for p, n in iter_nodes(w) if isinstance(n, Loop)]
    options = [range(len(n.parts)) for _, n in disjs] + [range(1, bound + 1)] * len(loops)
    kept = {}
    for combo in itertools.product(*options):
        choices = {p: step for (p, _), step in zip(disjs, combo)}
        unrolls = dict(zip(loops, combo[len(disjs):]))
        reached = executed_points(w, choices)
        choices = {p: k for p, k in choices.items() if p in reached}
        unrolls = {p: k for p, k in unrolls.items() if p in reached}
        kept.setdefault((tuple(choices.items()), tuple(unrolls.items())), (choices, unrolls))
    return list(kept.values())


def reference_nodes(w, prefix=()):
    """Recursive preorder walk, the reference for the stack-based one."""
    yield prefix, w
    for step, child in enumerate(children(w)):
        yield from reference_nodes(child, prefix + (step,))


def reference_order_facts(w):
    """The atom names of w and every name pair it orders, as the prefilter
    computed them before it read positions: quadratic in the tree's size."""
    pairs = set()

    def names(node):
        if isinstance(node, Atomic):
            return {node.name}
        below = set()
        for kid in children(node):
            inside = names(kid)
            if isinstance(node, Seq):
                pairs.update(itertools.product(below, inside))
            below |= inside
        return below

    return names(w), pairs


def order_facts(w):
    """The atom names of w and the name pairs it orders, as sets: (x, y)
    when some sequence has an atom named x in an earlier part than one
    named y.  Read from the positions the prefilter walks."""
    spans = _positions(w)
    return set(spans), set(_ordered_pairs(spans))


def random_normal_tree(rng):
    """A normalized random tree over four names; up to two of its nodes
    carry a label, which keeps some sequences nested."""
    w = rand_workflow(rng, max_depth=4, max_leaves=rng.randint(1, 7))
    paths = [p for p, _ in iter_nodes(w)]
    labelled = rng.sample(paths, min(len(paths), rng.randint(0, 2)))
    return _norm(relabel(w, {p: f"L{k}" for k, p in enumerate(labelled)}))


def renamed(w, names):
    """The tree with each atom renamed through ``names``."""
    if isinstance(w, Atomic):
        return replace(w, name=names[w.name])
    return with_children(w, [renamed(kid, names) for kid in children(w)])


def nested(levels):
    """A tree ``levels`` brackets deep, cycling through the node kinds."""
    node = atom("a")
    for level in range(levels):
        kind = level % 4
        if kind == 0:
            node = Loop(node)
        else:
            node = (Conj, Seq, Disj)[kind - 1]((node, atom("b")))
    return node


class TestIterNodes:
    @given(st.randoms(use_true_random=False).map(lambda r: rand_workflow(r, max_depth=6, max_leaves=14)))
    @example(seq(*(atom(f"s{i}") for i in range(1500))))
    @example(nested(100))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_recursive_walk(self, w):
        assert list(iter_nodes(w)) == list(reference_nodes(w))


class TestSubworkflows:
    def test_atom(self):
        a = atom("alpha")
        assert subworkflows(a) == {a}
        assert proper_subworkflows(a) == frozenset()

    def test_sequence(self):
        a, b = atom("alpha"), atom("beta")
        w = Seq((a, b))
        assert subworkflows(w) == {a, b, w}
        assert proper_subworkflows(w) == {a, b}

    def test_repeated_atom_occurrences_stay_apart(self):
        # (alpha -> beta) -> alpha: after renaming the two alphas differ
        w = rename_occurrences(Seq((Seq((atom("alpha"), atom("beta"))), atom("alpha"))))
        subs = subworkflows(w)
        alphas = [s for s in subs if isinstance(s, Atomic) and s.name == "alpha"]
        assert len(alphas) == 2
        assert alphas[0].occ != alphas[1].occ
        assert len(subs) == 5


class TestRenameOccurrences:
    def test_loop_satisfiability_shape(self):
        # alpha -> alpha gets two distinct ids
        w = rename_occurrences(Seq((Atomic("alpha"), Atomic("alpha"))))
        occs = [n.occ for _, n in atoms(w)]
        assert len(set(occs)) == 2

    def test_single_atom_gets_fresh_id(self):
        a = Atomic("alpha", occ=0)
        renamed = rename_occurrences(a)
        assert isinstance(renamed, Atomic)
        assert renamed.name == "alpha"
        assert renamed.occ != 0

    def test_three_leaves_three_ids(self):
        w = rename_occurrences(Conj((Atomic("alpha"), Seq((Atomic("alpha"), Atomic("alpha"))))))
        occs = [n.occ for _, n in atoms(w)]
        assert len(occs) == 3
        assert len(set(occs)) == 3

    def test_structure_and_labels_preserved(self):
        w = Conj((Atomic("a"), Loop(Atomic("b"), label="lp")), label="top")
        renamed = rename_occurrences(w)
        assert fingerprint(renamed) == fingerprint(w)
        assert renamed.label == "top"


class TestUnroll:
    def test_once_is_the_workflow(self):
        w = unroll(atom("alpha"), 1)
        assert isinstance(w, Atomic) and w.name == "alpha"

    def test_twice(self):
        w = unroll(atom("alpha"), 2)
        assert fingerprint(normalize(w)) == fingerprint(
            normalize(Seq((Atomic("alpha"), Atomic("alpha"))))
        )
        assert len({n.occ for _, n in atoms(w)}) == 2

    def test_three_is_one_sequence(self):
        w = unroll(atom("alpha"), 3)
        assert isinstance(w, Seq) and len(w.parts) == 3
        assert all(isinstance(part, Atomic) for part in w.parts)
        assert len({n.occ for _, n in atoms(w)}) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unroll(atom("alpha"), 0)


class TestResolutions:
    def test_atom_has_single_resolution(self):
        enum = resolutions(atom("alpha"), 3)
        assert len(enum) == 1
        assert not enum[0][0].unrolls

    def test_choice_has_two(self):
        w = rename_occurrences(disj(atom("alpha"), atom("beta")))
        enum = resolutions(w, 3)
        assert [count for _, count in enum] == [1, 1]
        got = {fingerprint(normalize(resolve_traced(w, r)[0])) for r, _ in enum}
        assert got == {fingerprint(atom("alpha")), fingerprint(atom("beta"))}

    def test_loop_unrolls_to_bound(self):
        w = rename_occurrences(loop(atom("alpha")))
        enum = resolutions(w, 2)
        assert [r.unrolls[()] for r, _ in enum] == [1, 2]
        assert [count for _, count in enum] == [1, 2]
        got = {fingerprint(normalize(resolve_traced(w, r)[0])) for r, _ in enum}
        expected = {
            fingerprint(normalize(atom("alpha"))),
            fingerprint(normalize(Seq((Atomic("alpha"), Atomic("alpha"))))),
        }
        assert got == expected

    def test_keys_are_exactly_the_executed_choice_points(self):
        rng = random.Random(7)
        for _ in range(25):
            w = rand_workflow(rng)
            for resolution, _ in resolutions(w, 2):
                reached = executed_points(w, resolution.choices)
                assert set(resolution.choices) | set(resolution.unrolls) == reached
                assert all(isinstance(node_at(w, p), Disj) for p in resolution.choices)
                assert all(isinstance(node_at(w, p), Loop) for p in resolution.unrolls)
                assert all(n >= 1 for n in resolution.unrolls.values())

    def test_resolved_trees_have_fresh_distinct_ids(self):
        w = rename_occurrences(loop(conj(atom("a"), atom("b"))))
        for r, _ in resolutions(w, 3):
            occs = [n.occ for _, n in atoms(resolve_traced(w, r)[0])]
            assert len(occs) == len(set(occs))

    def test_nested_choices_give_one_resolution_per_shape(self):
        # or{ x | or{ x | ... } }: 12 choice points, 13 shapes, one atom each
        w = atom("x")
        for _ in range(12):
            w = disj(atom("x"), w)
        enum = resolutions(rename_occurrences(w), 3)
        assert len(enum) == 13
        assert [len(r.choices) for r, _ in enum] == list(range(1, 13)) + [12]
        assert all(count == 1 for _, count in enum)

    @given(workflow_strategy(max_leaves=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_brute_force_product(self, w):
        enum = resolutions(w, 2)
        got = [(dict(r.choices), dict(r.unrolls)) for r, _ in enum]
        assert got == reference_resolutions(w, 2)
        keys = {(tuple(c.items()), tuple(u.items())) for c, u in got}
        assert len(keys) == len(got)
        for r, count in enum:
            assert count == len(resolve_traced(w, r)[1])

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            resolutions(atom("a"), 0)
        with pytest.raises(ValueError):
            shape_census(atom("a"), 0)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_census_counts_the_shapes_and_the_smallest(self, rng, bound):
        for _ in range(40):
            w = rand_workflow(rng, max_depth=4, max_leaves=6)
            enum = resolutions(w, bound)
            assert shape_census(w, bound) == (len(enum), min(size for _, size in enum))

    def test_census_of_a_long_choice_chain_needs_no_enumeration(self):
        chain = seq(*(disj(atom(f"a{i}"), conj(atom(f"b{i}"), atom(f"c{i}"))) for i in range(200)))
        assert shape_census(chain, 3) == (2**200, 200)
        assert shape_census(loop(chain), 3) == (3 * 2**200, 200)


class TestNormalize:
    def test_flattening_example(self):
        # [[alpha; beta]; [alpha; gamma]] becomes the sorted multiset
        w = Conj(
            (
                Conj((Atomic("alpha"), Atomic("beta"))),
                Conj((Atomic("alpha"), Atomic("gamma"))),
            )
        )
        flat = normalize(w)
        assert isinstance(flat, Conj)
        assert all(isinstance(part, Atomic) for part in flat.parts)
        names = [part.name for part in flat.parts]
        assert names == ["alpha", "alpha", "beta", "gamma"]

    def test_disjunction_idempotent(self):
        assert fingerprint(normalize(Disj((Atomic("alpha"), Atomic("alpha"))))) == fingerprint(
            normalize(Atomic("alpha"))
        )

    def test_loop_idempotent(self):
        assert fingerprint(normalize(Loop(Loop(Atomic("alpha"))))) == fingerprint(
            normalize(Loop(Atomic("alpha")))
        )

    def test_conjunction_commutes_and_associates(self):
        a, b, c = Atomic("a"), Atomic("b"), Atomic("c")
        assert normalize(Conj((a, b))) == normalize(Conj((b, a)))
        assert normalize(Conj((Conj((a, b)), c))) == normalize(Conj((a, Conj((b, c)))))
        assert normalize(Disj((a, b))) == normalize(Disj((b, a)))
        assert normalize(Disj((Disj((a, b)), c))) == normalize(Disj((a, Disj((b, c)))))

    def test_sequence_reassociates(self):
        a, b, c = Atomic("a"), Atomic("b"), Atomic("c")
        assert normalize(Seq((Seq((a, b)), c))) == normalize(Seq((a, Seq((b, c)))))

    def test_sequence_order_is_kept(self):
        a, b = Atomic("a"), Atomic("b")
        assert normalize(Seq((a, b))) != normalize(Seq((b, a)))

    @given(workflow_strategy())
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, w):
        once = normalize(w)
        assert normalize(once) == once

    @given(workflow_strategy(), workflow_strategy())
    @settings(max_examples=80, deadline=None)
    def test_commutativity_property(self, a, b):
        assert normalize(Conj((a, b))) == normalize(Conj((b, a)))
        assert normalize(Disj((a, b))) == normalize(Disj((b, a)))

    def test_labels_block_flattening(self):
        inner = Conj((Atomic("a"), Atomic("b")), label="grp")
        w = Conj((inner, Atomic("c")))
        flat = normalize(w)
        kept = [n for _, n in iter_nodes(flat) if n.label == "grp"]
        assert len(kept) == 1
        assert isinstance(kept[0], Conj)


class TestSequenceEquivalenceByOracle:
    def test_sequence_associativity_is_semantic(self):
        # executions coincide in both directions on instances up to 4 atoms
        a, b, c = atom("a"), atom("b"), atom("c")
        left = rename_occurrences(Seq((Seq((a, b)), c)))
        right = rename_occurrences(Seq((a, Seq((b, c)))))
        assert executions_included(left, right, 2, 2)
        assert executions_included(right, left, 2, 2)

    def test_loop_shift_law(self):
        # w -> loop(w) and loop(w) -> w resolve to the same shapes
        for w in (atom("a"), seq(atom("a"), atom("b"))):
            left = rename_occurrences(Seq((w, Loop(rename_occurrences(w)))))
            right = rename_occurrences(Seq((Loop(rename_occurrences(w)), w)))
            assert shapes(left, 3) == shapes(right, 3)

    def test_loop_absorbs_double_iteration(self):
        # loop(w) -> loop(w) covers the same shapes as loop(w) -> w at
        # matched bounds (each side is an iterated chain of w)
        w = atom("a")
        doubled = rename_occurrences(Seq((Loop(atom("a")), Loop(atom("a")))))
        single = rename_occurrences(Seq((Loop(atom("a")), atom("a"))))
        assert shapes(doubled, 2) <= shapes(single, 3)
        assert shapes(single, 2) <= shapes(doubled, 2)


class TestSubstitute:
    def test_replace_left(self):
        w = rename_occurrences(seq(atom("alpha"), atom("beta")))
        out = substitute(w, (0,), atom("gamma"))
        assert fingerprint(normalize(out)) == fingerprint(
            normalize(Seq((Atomic("gamma"), Atomic("beta"))))
        )

    def test_replace_loop_body_renames(self):
        w = rename_occurrences(loop(atom("alpha")))
        out = substitute(w, (0,), Seq((Atomic("alpha", occ=1), Atomic("alpha", occ=1))))
        body = node_at(out, (0,))
        occs = [n.occ for _, n in atoms(body)]
        assert len(set(occs)) == 2

    def test_replace_root(self):
        out = substitute(atom("a"), (), atom("b"))
        assert isinstance(out, Atomic) and out.name == "b"

    def test_invalid_path(self):
        with pytest.raises(PathError):
            substitute(atom("a"), (0,), atom("b"))
        with pytest.raises(PathError):
            node_at(atom("a"), (0,))


class TestSubsumption:
    def test_sequence_subsumed_by_conjunction(self):
        w1 = rename_occurrences(seq(atom("alpha"), atom("beta")))
        w2 = rename_occurrences(conj(atom("alpha"), atom("beta")))
        assert subsumes_syntactic(w1, w2) is SubsumptionVerdict.HOLDS

    def test_workflow_subsumed_by_its_loop(self):
        assert (
            subsumes_syntactic(atom("alpha"), loop(atom("alpha")))
            is SubsumptionVerdict.HOLDS
        )

    def test_loop_absorbs_trailing_body(self):
        w1 = rename_occurrences(Seq((Loop(atom("alpha")), atom("alpha"))))
        w2 = rename_occurrences(loop(atom("alpha")))
        assert subsumes_syntactic(w1, w2) is SubsumptionVerdict.HOLDS

    def test_conjunction_not_claimed_subsumed_by_sequence(self):
        w1 = rename_occurrences(conj(atom("alpha"), atom("beta")))
        w2 = rename_occurrences(seq(atom("alpha"), atom("beta")))
        assert subsumes_syntactic(w1, w2) is SubsumptionVerdict.UNKNOWN

    def test_reverse_direction_fails_on_a_model(self):
        # a witness why [alpha; beta] is not subsumed by alpha -> beta:
        # beta may start before alpha ends
        from twf.allen import interval
        from twf.semantics import check_model

        conj_w = rename_occurrences(conj(atom("alpha"), atom("beta")))
        seq_w = rename_occurrences(seq(atom("alpha"), atom("beta")))
        (ci,) = enumerate_instances(conj_w, 1)
        (si,) = enumerate_instances(seq_w, 1)
        overlap = {
            ci.atoms[0].occ: interval(0, 2),
            ci.atoms[1].occ: interval(1, 3),
        }
        assert check_model(ci, overlap)
        seq_assignment = {
            si.atoms[0].occ: interval(0, 2),
            si.atoms[1].occ: interval(1, 3),
        }
        assert not check_model(si, seq_assignment)

    def test_wide_groups_wrap_subsets_of_their_tail_and_suffixes(self):
        parts = [atom(name) for name in "abcdefgh"]
        wide = rename_occurrences(conj(*parts))
        tail_pair = rename_occurrences(conj(*parts[:6], loop(conj(*parts[6:]))))
        suffix = rename_occurrences(conj(parts[0], loop(conj(*parts[1:]))))
        assert subsumes_syntactic(wide, tail_pair) is SubsumptionVerdict.HOLDS
        assert subsumes_syntactic(wide, suffix) is SubsumptionVerdict.HOLDS

    def test_reflexive_modulo_normalization(self):
        w = rename_occurrences(conj(atom("b"), atom("a")))
        v = rename_occurrences(conj(atom("a"), atom("b")))
        assert subsumes_syntactic(w, v) is SubsumptionVerdict.HOLDS

    def test_congruence_inside_context(self):
        inner1 = seq(atom("a"), atom("b"))
        inner2 = conj(atom("a"), atom("b"))
        w1 = rename_occurrences(Loop(Conj((inner1, atom("c")))))
        w2 = rename_occurrences(Loop(Conj((inner2, atom("c")))))
        assert subsumes_syntactic(w1, w2) is SubsumptionVerdict.HOLDS

    def test_search_uses_up_no_occurrence_ids(self, monkeypatch):
        # neither goal is ever reached; the reversed chain is refuted by
        # order, the choice keeps the chain's names and orders but no rule
        # makes a disjunction, so there every state is visited
        steps = [atom(f"s{i}") for i in range(5)]
        reversed_chain = (seq(*steps), seq(*reversed(steps)))
        choice_first = (seq(*steps[:4]), seq(disj(steps[0], steps[1]), steps[2], steps[3]))
        searched = count_generalizations(monkeypatch)
        for chain, goal in (reversed_chain, choice_first):
            before = fresh_occ()
            assert subsumes_syntactic(chain, goal) is SubsumptionVerdict.UNKNOWN
            assert fresh_occ() == before + 1
        assert searched[0] > 1000

    def test_reversed_chain_is_refuted_before_the_search(self, monkeypatch):
        steps = [atom(f"s{i}") for i in range(5)]
        searched = count_generalizations(monkeypatch)
        verdict = subsumes_syntactic(seq(*steps), seq(*reversed(steps)))
        assert verdict is SubsumptionVerdict.UNKNOWN
        assert searched == [0]

    def test_order_facts_of_a_sequence(self):
        w = rename_occurrences(seq(atom("a"), conj(atom("b"), atom("c")), loop(seq(atom("d"), atom("a")))))
        names, pairs = order_facts(w)
        assert names == set("abcd")
        assert pairs == {
            ("a", "b"), ("a", "c"), ("a", "d"), ("a", "a"),
            ("b", "d"), ("b", "a"), ("c", "d"), ("c", "a"), ("d", "a"),
        }

    def test_prefilter_reads_positions_like_the_quadratic_check(self):
        # random normalized (start, goal) pairs: independent trees, goals a
        # rewrite or two away (never refuted), and goals with the start's
        # names permuted, where the names pass and the pairs decide
        rng = random.Random(20261020)
        outcomes = Counter()
        for case in range(12000):
            start = random_normal_tree(rng)
            if case % 3 == 0:
                goal = random_normal_tree(rng)
            elif case % 3 == 1:
                goal = start
                for _ in range(rng.randint(1, 2)):
                    goal = _norm(rng.choice(list(_generalizations(goal))))
            else:
                names = sorted(reference_order_facts(start)[0])
                goal = _norm(renamed(start, dict(zip(names, rng.sample(names, len(names))))))
            (names1, pairs1), (names2, pairs2) = map(reference_order_facts, (start, goal))
            assert order_facts(start) == (names1, pairs1)
            within = names2 <= names1 and pairs2 <= pairs1
            assert _within_order_facts(start, goal) == within
            outcomes[within, names2 <= names1] += 1
        # accepted, refuted by a name, refuted by a pair alone
        assert min(outcomes[True, True], outcomes[False, False], outcomes[False, True]) >= 500

    def test_prefilter_memory_stays_linear(self):
        # a reversed chain is refuted by its first pair; the quadratic set of
        # the chain's ordered pairs took hundreds of MB here
        steps = [atom(f"s{i}") for i in range(3000)]
        chain, backwards = seq(*steps), seq(*reversed(steps))
        verdict = []
        peak = traced_peak(lambda: verdict.append(subsumes_syntactic(chain, backwards)))
        assert verdict == [SubsumptionVerdict.UNKNOWN]
        assert peak < 25 * 2**20

    @given(labelled_workflows())
    @settings(max_examples=150, deadline=None)
    def test_rewrites_add_no_name_and_no_ordered_pair(self, w):
        # the lemma the refutation rests on, one search step at a time
        names, pairs = order_facts(w)
        start = _norm(w)
        assert order_facts(start) == (names, pairs)
        for candidate in _generalizations(start):
            more_names, more_pairs = order_facts(_norm(candidate))
            assert more_names <= names and more_pairs <= pairs

    @given(labelled_workflows(max_leaves=4), st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_goals_reached_by_rewrites_hold(self, w, picks):
        # the refutation never blocks a goal the search reaches
        goal = _norm(w)
        for pick in picks:
            candidates = list(_generalizations(goal))
            goal = _norm(candidates[pick % len(candidates)])
        assert subsumes_syntactic(w, goal) is SubsumptionVerdict.HOLDS

    def test_holds_is_sound_for_bounded_executions(self, rng):
        # every Holds verdict is confirmed by the execution-inclusion oracle
        checked = 0
        while checked < 12:
            w1 = rand_workflow(rng, max_depth=3, max_leaves=3, allow_loops=False)
            w2 = rand_workflow(rng, max_depth=3, max_leaves=3, allow_loops=False)
            if subsumes_syntactic(w1, w2) is SubsumptionVerdict.HOLDS:
                assert executions_included(w1, w2, 2, 3)
                checked += 1

    def test_substitution_monotonicity(self, rng):
        # Holds(phi, psi) implies Holds(ctx[phi], ctx[psi]) at any position
        phi = seq(atom("a"), atom("b"))
        psi = conj(atom("a"), atom("b"))
        assert subsumes_syntactic(phi, psi) is SubsumptionVerdict.HOLDS
        contexts = [
            lambda x: Conj((x, atom("c"))),
            lambda x: Seq((atom("c"), Seq((x, atom("d"))))),
            lambda x: Loop(Disj((x, atom("c")))),
        ]
        for ctx in contexts:
            big1 = rename_occurrences(ctx(phi))
            big2 = rename_occurrences(ctx(psi))
            assert subsumes_syntactic(big1, big2) is SubsumptionVerdict.HOLDS
