"""The brute-force model search: weak orders, model checking, hulls."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_instances,
    loop_context,
    rand_extended,
    rand_workflow,
    traced_peak,
    workflow_strategy,
)
from twf import semantics
from twf.allen import RELATIONS, UNIVERSAL, Interval, RelationSet, interval, relation_between
from twf.extended import refutes_plan, variable_paths
from twf.qcn import Qcn
from twf.semantics import (
    AtomBudgetError,
    NotExecutedError,
    check_model,
    execution_times,
    find_model,
    hull,
    hull_obligation,
    network_models_bruteforce,
    weak_orders,
)
from twf.workflow import (
    Atomic,
    Seq,
    atom,
    conj,
    disj,
    iter_nodes,
    loop,
    rename_occurrences,
    resolutions,
    resolve_traced,
    seq,
)


def count_weak_orders_directly(m: int) -> int:
    """Weak orders of the 2m endpoints with start < end, counted naively.

    Enumerates every layer assignment whose values form an initial segment
    of the integers; deliberately independent of the production enumerator.
    """
    n = 2 * m
    if n == 0:
        return 1
    count = 0
    for assignment in itertools.product(range(n), repeat=n):
        used = set(assignment)
        if used != set(range(len(used))):
            continue
        if all(assignment[2 * a] < assignment[2 * a + 1] for a in range(m)):
            count += 1
    return count


def reference_weak_orders(atom_count, le_pairs=(), hulls=()):
    """The weak-order enumerator as it stood before the one-pass step: it
    finds the placeable endpoints bit by bit, checks predecessors and
    writes layers in two passes, and carries five-int obligations (the
    ends spelled out).  Witnesses are the first order found, so the
    production enumerator must yield exactly this sequence."""
    hulls = [(s1, s1 << 1, s2, s2 << 1, rels) for s1, s2, rels in hulls]
    if any(h[4] == 0 for h in hulls):
        return
    n = 2 * atom_count
    full = (1 << n) - 1
    preds = [0] * n
    for x, y in le_pairs:
        preds[y] |= 1 << x
    layers = [0] * n

    def rec(remaining, depth, pending):
        if remaining == 0:
            yield tuple(layers)
            return
        allowed = 0
        rem = remaining
        while rem:
            bit = rem & -rem
            e = bit.bit_length() - 1
            if e % 2 == 0 or not (remaining >> (e - 1)) & 1:
                allowed |= bit
            rem ^= bit
        sub = allowed
        while sub:
            rest = remaining & ~sub
            chosen, valid = sub, True
            while chosen:
                bit = chosen & -chosen
                if preds[bit.bit_length() - 1] & rest:
                    valid = False
                    break
                chosen ^= bit
            if valid:
                chosen = sub
                while chosen:
                    bit = chosen & -chosen
                    layers[bit.bit_length() - 1] = depth
                    chosen ^= bit
                placed = full & ~rest
                still = []
                for obligation in pending:
                    s1, e1, s2, e2, rels, done, possible = obligation
                    now = (
                        (s1 & placed != 0)
                        | (e1 & placed == e1) << 1
                        | (s2 & placed != 0) << 2
                        | (e2 & placed == e2) << 3
                    )
                    if now == done:
                        still.append(obligation)
                        continue
                    possible &= semantics._NEXT_GROUP[done][now ^ done]
                    if not possible & rels:
                        valid = False
                        break
                    if possible & ~rels:
                        still.append((s1, e1, s2, e2, rels, now, possible))
                if valid:
                    yield from rec(rest, depth + 1, still)
            sub = (sub - 1) & allowed

    yield from rec(full, 0, [(*h, 0, UNIVERSAL.bits) for h in hulls])


class TestWeakOrders:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_count_matches_direct_enumeration(self, m):
        assert sum(1 for _ in weak_orders(m)) == count_weak_orders_directly(m)

    def test_two_atoms_cover_all_thirteen_relations(self):
        from twf.allen import relation_between

        seen = set()
        for layers in weak_orders(2):
            i = Interval(Fraction(layers[0]), Fraction(layers[1]))
            j = Interval(Fraction(layers[2]), Fraction(layers[3]))
            seen.add(relation_between(i, j))
        assert len(seen) == 13

    def test_le_pairs_respected(self):
        for layers in weak_orders(2, le_pairs=[(1, 2)]):
            assert layers[1] <= layers[2]

    def test_deterministic(self):
        assert list(weak_orders(2)) == list(weak_orders(2))

    def test_same_sequence_as_the_reference(self, rng):
        # random plans of <= 4 atoms: endpoint orderings in any direction,
        # sides of one or more atoms, and now and then an empty relation set
        plans = [(m, (), ()) for m in range(5)]
        for _ in range(200):
            m = rng.randint(1, 4)
            endpoints = range(2 * m)
            le_pairs = [tuple(rng.sample(endpoints, 2)) for _ in range(rng.randint(0, 3))]
            hulls = [
                hull_obligation(
                    rng.sample(range(m), rng.randint(1, m)),
                    rng.sample(range(m), rng.randint(1, m)),
                    RelationSet(rng.getrandbits(13) if rng.random() < 0.9 else 0),
                )
                for _ in range(rng.randint(0, 3))
            ]
            plans.append((m, le_pairs, hulls))
        assert any(not allowed for _, _, hulls in plans for *_, allowed in hulls)
        for plan in plans:
            assert list(weak_orders(*plan)) == list(reference_weak_orders(*plan))


@st.composite
def small_networks(draw):
    """Networks of at most three variables; a diagonal may be constrained."""
    rels = st.sets(st.sampled_from(RELATIONS), min_size=1, max_size=6).map(
        lambda chosen: RelationSet.of(*chosen)
    )
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    network = Qcn.universal(names)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if draw(st.booleans()):
                network = network.set_constraint(a, b, draw(rels))
    if draw(st.integers(0, 5)) == 0:
        v = draw(st.sampled_from(names))
        network = network.set_constraint(v, v, draw(rels))
    return network


@given(small_networks())
@settings(max_examples=150, deadline=None)
def test_pruned_network_search_keeps_exactly_the_models(network):
    # the unpruned enumeration, filtered entry by entry (diagonal included)
    names = network.variables
    expected = []
    for layers in weak_orders(len(names)):
        model = {
            name: interval(layers[2 * k], layers[2 * k + 1]) for k, name in enumerate(names)
        }
        if all(
            relation_between(model[vi], model[vj]) in network.get(vi, vj)
            for vi in names
            for vj in names
        ):
            expected.append(model)
    assert list(network_models_bruteforce(network)) == expected


@st.composite
def hull_constrained_trees(draw):
    """A tree, two of its nodes in one loop context (atoms, groups, choices
    or loops) and a random relation set constraining their hulls."""
    tree = rename_occurrences(draw(workflow_strategy(max_leaves=3)))
    by_context: dict[tuple, list] = {}
    for path, _ in iter_nodes(tree):
        by_context.setdefault(loop_context(tree, path), []).append(path)
    groups = [group for group in by_context.values() if len(group) > 1]
    assume(groups)
    nodes = draw(st.sampled_from(groups))
    left, right = draw(st.permutations(nodes))[:2]
    rels = draw(st.sets(st.sampled_from(RELATIONS), max_size=13))
    network = Qcn.universal(("x", "y")).set_constraint("x", "y", RelationSet.of(*rels))
    return tree, network, {"x": left, "y": right}


@given(hull_constrained_trees())
@settings(max_examples=100, deadline=None)
def test_hull_obligations_keep_exactly_the_models(case):
    tree, network, var_paths = case
    for instance in enumerate_instances(tree, 2):
        m = len(instance.atoms)
        if m > 3:
            continue
        le_pairs, hulls = semantics._search_plan(instance, network, var_paths)
        expected = [
            layers
            for layers in weak_orders(m, le_pairs)
            if check_model(
                instance,
                {
                    a.occ: interval(layers[2 * k], layers[2 * k + 1])
                    for k, a in enumerate(instance.atoms)
                },
                network,
                var_paths,
            )
        ]
        assert list(weak_orders(m, le_pairs, hulls)) == expected


@st.composite
def extended_cases(draw):
    """A rand_extended case (atom constraints, loops) in the form of
    hull_constrained_trees: a tree, a network and its variable paths."""
    ew = rand_extended(draw(st.randoms(use_true_random=False)), max_constraints=3)
    return ew.workflow, ew.network, variable_paths(ew)


@given(st.one_of(hull_constrained_trees(), extended_cases()))
@settings(max_examples=150, deadline=None)
def test_refuted_plans_have_no_model(case):
    tree, network, var_paths = case
    for instance in enumerate_instances(tree, 2):
        m = len(instance.atoms)
        if m > 4:
            continue
        plan = semantics._search_plan(instance, network, var_paths)
        if refutes_plan(m, *plan):
            assert next(weak_orders(m, *plan), None) is None


def test_the_oracle_shares_no_code_with_the_solver():
    """semantics arbitrates for composition and path consistency, so it
    must neither import nor name them."""
    solver = {
        "compose_masks", "compose_rows", "compose_sets", "path_consistency", "is_consistent",
        "scenarios", "_pc_bits",
    }
    tree = ast.parse(Path(semantics.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rsplit(".", 1)[-1])
    assert not named & solver


def sequence_le_pairs(instance, consecutive_only):
    """Endpoint orderings of the sequences of a resolved instance: each
    part's ends before the next part's starts, or before every later part's."""
    index = {a.occ: i for i, a in enumerate(instance.atoms)}
    pairs = []
    for _, node in iter_nodes(instance.workflow):
        if not isinstance(node, Seq):
            continue
        occs = [[n.occ for _, n in iter_nodes(p) if isinstance(n, Atomic)] for p in node.parts]
        for i, j in itertools.combinations(range(len(occs)), 2):
            if consecutive_only and j != i + 1:
                continue
            pairs += [(2 * index[x] + 1, 2 * index[y]) for x in occs[i] for y in occs[j]]
    return pairs


class TestSequenceConditions:
    def test_consecutive_parts_order_like_every_pair(self):
        # Intervals have positive length, so ordering consecutive parts
        # yields the same weak orders, in the same order, as ordering every
        # two parts of a sequence.
        a, b, c, d = (atom(n) for n in "abcd")
        cases = [
            seq(a, b, c, d),
            seq(a, conj(b, c), d),
            seq(seq(a, b), c, disj(d, a)),
            seq(loop(a), b),
            loop(seq(a, b)),
        ]
        compared = 0
        for w in cases:
            for instance in enumerate_instances(rename_occurrences(w), 3):
                if len(instance.atoms) > 4:
                    continue
                m = len(instance.atoms)
                consecutive = list(weak_orders(m, sequence_le_pairs(instance, True)))
                every = list(weak_orders(m, sequence_le_pairs(instance, False)))
                assert consecutive == every
                compared += 1
        assert compared >= 8


class TestCheckModel:
    def test_sequence_respected(self):
        w = rename_occurrences(seq(atom("alpha"), atom("beta")))
        (inst,) = enumerate_instances(w, 1)
        a, b = (x.occ for x in inst.atoms)
        assert check_model(inst, {a: interval(0, 1), b: interval(2, 3)})
        assert check_model(inst, {a: interval(0, 1), b: interval(1, 2)})

    def test_sequence_violated(self):
        w = rename_occurrences(seq(atom("alpha"), atom("beta")))
        (inst,) = enumerate_instances(w, 1)
        a, b = (x.occ for x in inst.atoms)
        assert not check_model(inst, {a: interval(0, 2), b: interval(1, 3)})

    def test_conjunction_imposes_no_order(self):
        w = rename_occurrences(conj(atom("alpha"), atom("beta")))
        (inst,) = enumerate_instances(w, 1)
        a, b = (x.occ for x in inst.atoms)
        assert check_model(inst, {a: interval(0, 2), b: interval(1, 3)})

    def test_missing_assignment_raises(self):
        w = rename_occurrences(conj(atom("alpha"), atom("beta")))
        (inst,) = enumerate_instances(w, 1)
        with pytest.raises(KeyError):
            check_model(inst, {inst.atoms[0].occ: interval(0, 1)})


class TestFindModel:
    def test_every_plain_workflow_has_a_model(self, rng):
        for _ in range(40):
            w = rand_workflow(rng, max_depth=3, max_leaves=4)
            model = find_model(w, unroll_bound=2)
            assert model is not None
            assert check_model(model.instance, model.assignment)

    def test_before_is_irreflexive(self):
        w = rename_occurrences(atom("alpha"))
        net = Qcn.universal(("v",)).set_constraint("v", "v", RelationSet.parse("b"))
        assert find_model(w, net, {"v": ()}) is None

    def test_counterexample_workflow_is_satisfiable(self):
        w = rename_occurrences(
            disj(conj(atom("alpha"), atom("beta")), conj(atom("gamma"), atom("delta")))
        )
        net = Qcn.universal(("alpha", "gamma", "delta"))
        net = net.set_constraint("alpha", "gamma", RelationSet.parse("b"))
        net = net.set_constraint("gamma", "delta", RelationSet.parse("b"))
        net = net.set_constraint("delta", "alpha", RelationSet.parse("b"))
        paths = {"alpha": (0, 0), "gamma": (1, 0), "delta": (1, 1)}
        model = find_model(w, net, paths)
        assert model is not None
        assert model.resolution.choices[()] == 0

    def test_budget_exceeded_is_distinguished(self):
        w = rename_occurrences(conj(*(atom(n) for n in "abcdefgh")))
        with pytest.raises(AtomBudgetError):
            find_model(w, atom_budget=7)
        assert find_model(w, atom_budget=16) is not None

    def test_only_in_budget_shapes_are_resolved(self, monkeypatch):
        calls = []

        def counting(w, resolution):
            calls.append(resolution)
            return resolve_traced(w, resolution)

        def unreachable(w, bound):
            raise AssertionError("shapes enumerated")

        monkeypatch.setattr(semantics, "resolve_traced", counting)
        # eight chained choices: 256 shapes of eight atoms each, every one
        # over the budget, so the census answers without enumerating them
        chain = rename_occurrences(seq(*(disj(atom(f"a{i}"), atom(f"b{i}")) for i in range(8))))
        with monkeypatch.context() as patched:
            patched.setattr(semantics, "resolutions", unreachable)
            with pytest.raises(AtomBudgetError, match="shapes skipped: 256, the smallest with 8 atoms"):
                find_model(chain)
        assert calls == []
        # the eight-atom branch is counted, only the one-atom branch is built
        w = rename_occurrences(disj(conj(*(atom(n) for n in "abcdefgh")), atom("z")))
        assert find_model(w) is not None
        assert [r.choices for r in calls] == [{(): 1}]

    def test_loop_counts_past_the_budget_are_counted_not_listed(self):
        # one loop{a} shape per count; a shape with more than atom_budget + 1
        # iterations is never built, so a huge bound costs no memory
        w = rename_occurrences(loop(atom("a")))
        found = []
        peak = traced_peak(lambda: found.append(find_model(w, unroll_bound=100_000)))
        assert found[0] is not None and len(found[0].instance.atoms) == 1
        assert peak < 2**20
        # the skipped shapes are the census's: counts 8 .. 20, the smallest 8 atoms
        net = Qcn.universal(("a",)).set_constraint("a", "a", RelationSet.parse("b"))
        with pytest.raises(AtomBudgetError, match="shapes skipped: 13, the smallest with 8 atoms"):
            find_model(w, net, {"a": (0,)}, unroll_bound=20)

    def test_capped_loop_counts_give_the_uncapped_answer(self, rng, monkeypatch):
        def outcome(ew, bound, budget):
            try:
                model = find_model(
                    ew.workflow, ew.network, variable_paths(ew),
                    unroll_bound=bound, atom_budget=budget,
                )
            except AtomBudgetError as exc:
                return str(exc)
            if model is None:
                return None
            rows = [(a.name, a.source, a.iterations, iv) for a, iv in model.atom_intervals()]
            return model.resolution, rows

        # about a third of the cases run a loop past atom_budget + 1 times,
        # some of them with no model in the budget
        for _ in range(150):
            ew = rand_extended(rng, max_constraints=4, max_loops=2)
            bound, budget = rng.randint(1, 12), rng.randint(2, 5)
            capped = outcome(ew, bound, budget)
            with monkeypatch.context() as patched:
                # every shape up to the bound, as before the cap
                patched.setattr(semantics, "resolutions", lambda w, _: resolutions(w, bound))
                assert outcome(ew, bound, budget) == capped

    def test_self_constraint_on_unexecuted_branch_is_vacuous(self):
        # p {b} p rules out executing p, but the other branch still works
        w = rename_occurrences(disj(atom("p"), atom("q")))
        net = Qcn.universal(("p",)).set_constraint("p", "p", RelationSet.parse("b"))
        model = find_model(w, net, {"p": (0,)})
        assert model is not None
        assert model.resolution.choices[()] == 1

    def test_loop_hull_spans_all_iterations(self):
        # with the loop unrolled twice, its interval runs from the first
        # iteration's start to the last iteration's end
        w = rename_occurrences(seq(loop(atom("x")), atom("z")))
        instances = enumerate_instances(w, 2)
        inst = next(i for i in instances if len(i.atoms) == 3)
        x1, x2, z = (a.occ for a in inst.atoms)
        net = Qcn.universal(("lp", "z")).set_constraint("lp", "z", RelationSet.parse("m"))
        paths = {"lp": (0,), "z": (1,)}
        meeting = {x1: interval(0, 1), x2: interval(1, 2), z: interval(2, 3)}
        assert check_model(inst, meeting, net, paths)
        gap = {x1: interval(0, 1), x2: interval(1, 2), z: interval(3, 4)}
        assert not check_model(inst, gap, net, paths)

    def test_returned_models_verify(self, rng):
        for _ in range(25):
            ew = rand_extended(rng)
            paths = variable_paths(ew)
            try:
                model = find_model(ew.workflow, ew.network, paths, unroll_bound=2)
            except AtomBudgetError:
                continue
            if model is not None:
                assert check_model(model.instance, model.assignment, ew.network, paths)


class TestExecutionTimes:
    def test_leaf_times_are_its_interval(self):
        w = rename_occurrences(seq(atom("alpha"), atom("beta")))
        model = find_model(w)
        times = execution_times(model, (0,))
        assert times == (model.assignment[model.instance.atoms[0].occ],)

    def test_hull_spans_union(self):
        assert hull([interval(0, 1), interval(3, 4)]) == interval(0, 4)
        with pytest.raises(ValueError):
            hull([])

    def test_sequence_hull(self):
        w = rename_occurrences(seq(atom("alpha"), atom("beta")))
        (inst,) = enumerate_instances(w, 1)
        a, b = (x.occ for x in inst.atoms)
        assignment = {a: interval(0, 1), b: interval(2, 3)}
        from twf.semantics import Model

        model = Model(inst, assignment)
        assert hull(execution_times(model, ())) == interval(0, 3)

    def test_additivity(self, rng):
        # times of a composite are exactly the union of its parts' times
        from twf.workflow import iter_nodes, Atomic

        for _ in range(15):
            w = rand_workflow(rng, max_depth=3, max_leaves=4, allow_loops=False)
            model = find_model(w)
            for path, node in iter_nodes(w):
                if isinstance(node, Atomic):
                    continue
                try:
                    whole = set(execution_times(model, path))
                except NotExecutedError:
                    continue
                parts = set()
                from twf.workflow import children

                for step in range(len(children(node))):
                    try:
                        parts.update(execution_times(model, path + (step,)))
                    except NotExecutedError:
                        pass
                assert whole == parts

    def test_unexecuted_branch_raises(self):
        w = rename_occurrences(disj(atom("p"), atom("q")))
        model = find_model(w)
        chosen = model.resolution.choices[()]
        other = 1 - chosen
        assert execution_times(model, (chosen,))
        with pytest.raises(NotExecutedError):
            execution_times(model, (other,))
