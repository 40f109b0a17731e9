"""Constraint networks: construction, path consistency, scenario search,
realization and entailment."""

import itertools
import random
from collections import deque

import pytest
from conftest import traced_peak, tree_doc
from hypothesis import given, settings
from hypothesis import strategies as st
from test_semantics import small_networks

import twf.qcn
from twf.allen import (
    EMPTY,
    RELATIONS,
    UNIVERSAL,
    Relation,
    RelationSet,
    compose_masks,
    compose_sets,
    converse_mask,
    interval,
    relation_between,
)
from twf.dsl import parse
from twf.extended import sequence_free
from twf.qcn import (
    Qcn,
    UnknownVariableError,
    UnrealizableScenarioError,
    VariableSetError,
    _closure,
    _pc_bits,
    check_schedule,
    entails,
    is_consistent,
    path_consistency,
    realize_scenario,
    scenarios,
)
from twf.semantics import (
    network_consistent_bruteforce,
    network_models_bruteforce,
    network_scenario_relations_bruteforce,
)

B = RelationSet.parse("b")
BM = RelationSet.parse("b m")


def random_constraints(rng, size, tightness=0.7, max_rels=4, min_rels=1):
    """Variable names and (vi, vj, rels) constraints on some pairs i < j."""
    names = tuple(f"v{i}" for i in range(size))
    constraints = [
        (names[i], names[j], RelationSet.of(*rng.sample(RELATIONS, rng.randint(min_rels, max_rels))))
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < tightness
    ]
    return names, constraints


def random_network(rng, size, tightness=0.7, max_rels=4, min_rels=1):
    names, constraints = random_constraints(rng, size, tightness, max_rels, min_rels)
    network = Qcn.universal(names)
    for vi, vj, rels in constraints:
        network = network.set_constraint(vi, vj, rels)
    return network


class TestConstruction:
    def test_set_then_get_intersects(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", BM)
        n = n.set_constraint("i", "j", RelationSet.parse("m eq"))
        assert n.get("i", "j") == RelationSet.parse("m")

    def test_converse_coherence(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", B)
        assert n.get("j", "i") == RelationSet.parse("bi")

    def test_disjoint_singletons_empty(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", B)
        n = n.set_constraint("i", "j", RelationSet.parse("m"))
        assert not n.get("i", "j")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            Qcn.universal(("i",)).set_constraint("i", "nope", B)

    def test_diagonal_self_constraint(self):
        n = Qcn.universal(("i",)).set_constraint("i", "i", B)
        assert n.get("i", "i") == RelationSet(0)
        assert list(n.nontrivial_pairs()) == [("i", "i", RelationSet(0))]
        assert not is_consistent(n)

    def test_with_variable_keeps_constraints(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "i", B).set_constraint("i", "j", BM)
        grown = n.with_variable("k")
        assert grown.variables == ("i", "j", "k")
        assert grown.get("i", "i") == RelationSet(0)
        assert list(grown.nontrivial_pairs()) == [("i", "i", RelationSet(0)), ("i", "j", BM)]
        assert grown.get("k", "k") == RelationSet.parse("eq")
        assert not is_consistent(grown)


def test_a_self_constraint_is_an_entry_like_any_other():
    # a {b} a rules out every schedule, so nothing may treat the network as
    # a scenario, realize it or accept a schedule for it
    n = Qcn.universal(("a", "b")).set_constraints([("a", "b", B), ("a", "a", B)])
    assert not n.is_scenario
    with pytest.raises(ValueError):
        realize_scenario(n)
    assert not check_schedule(n, {"a": interval(0, 1), "b": interval(2, 3)})
    assert "a {} a" in str(n)


@given(small_networks(), st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=3))
@settings(max_examples=200, deadline=None)
def test_check_schedule_is_the_definition(n, spans):
    # every ordered pair of variables, a variable with itself included
    schedule = {v: interval(lo, lo + size) for v, (lo, size) in zip(n.variables, spans)}
    assert check_schedule(n, schedule) == all(
        relation_between(schedule[vi], schedule[vj]) in n.get(vi, vj)
        for vi, vj in itertools.product(n.variables, repeat=2)
    )


EQ = RelationSet.parse("eq")


def dense_reference(names, constraints):
    """The n×n mask matrix of the constraints: {eq} on the diagonal and
    universal off it, each constraint and its converse intersected in."""
    index = {name: k for k, name in enumerate(names)}
    m = [[UNIVERSAL.bits] * len(names) for _ in names]
    for k in range(len(names)):
        m[k][k] = EQ.bits
    for vi, vj, rels in constraints:
        i, j = index[vi], index[vj]
        m[i][j] &= rels.bits
        m[j][i] &= converse_mask(rels.bits)
    return m


def test_network_api_agrees_with_a_dense_reference():
    """Random networks with self-constraints, universal labels, repeated and
    reversed pairs, read back through every accessor and built both in one
    call and one constraint at a time."""
    rng = random.Random(20261020)
    for _ in range(1000):
        names, constraints = random_constraints(rng, rng.randint(1, 7), rng.random(), 13, 0)
        for _ in range(rng.randint(0, 4)):
            vi, vj = rng.choice(names), rng.choice(names)
            rels = RelationSet(rng.randrange(UNIVERSAL.bits + 1))
            constraints.append((vi, vj, rng.choice([rels, rels | EQ, UNIVERSAL])))
            constraints.append((vi, vi, rng.choice([rels, rels | EQ, UNIVERSAL])))
        rng.shuffle(constraints)
        chained = Qcn.universal(names)
        for vi, vj, rels in constraints:
            chained = chained.set_constraint(vi, vj, rels)
        n = Qcn.universal(names).set_constraints(constraints)
        assert n == chained

        m = dense_reference(names, constraints)
        for (i, vi), (j, vj) in itertools.product(enumerate(names), repeat=2):
            assert n.get(vi, vj).bits == m[i][j]
        # row-major: a diagonal entry that differs from {eq}, an
        # off-diagonal one that differs from universal
        assert list(n.nontrivial_pairs()) == [
            (vi, vj, RelationSet(m[i][j]))
            for (i, vi), (j, vj) in itertools.combinations_with_replacement(enumerate(names), 2)
            if m[i][j] != (EQ.bits if i == j else UNIVERSAL.bits)
        ]
        vi, vj = rng.choice(names), rng.choice(names)
        assert n.set_constraint(vi, vj, UNIVERSAL) == n
        assert n.set_constraint(vi, vi, RelationSet(rng.randrange(UNIVERSAL.bits + 1)) | EQ) == n


class TestPathConsistency:
    def test_before_chain_refines(self):
        n = Qcn.universal(("i", "j", "k"))
        n = n.set_constraint("i", "j", B).set_constraint("j", "k", B)
        refined, ok = path_consistency(n)
        assert ok
        assert refined.get("i", "k") == B

    def test_two_variable_network_unchanged(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", BM)
        refined, ok = path_consistency(n)
        assert ok and refined == n

    def test_empty_entry_flagged(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", B)
        n = n.set_constraint("j", "i", B)
        refined, ok = path_consistency(n)
        assert not ok

    def test_monotone_and_idempotent(self, rng):
        for _ in range(40):
            n = random_network(rng, rng.randint(2, 5))
            refined, ok = path_consistency(n)
            for vi in n.variables:
                for vj in n.variables:
                    assert refined.get(vi, vj).bits & ~n.get(vi, vj).bits == 0
            if ok:
                again, ok2 = path_consistency(refined)
                assert ok2 and again == refined

    def test_never_removes_realizable_relation(self, rng):
        # soundness against brute-force scenario enumeration, <=5 variables
        for _ in range(30):
            n = random_network(rng, rng.randint(3, 5), tightness=0.9)
            refined, ok = path_consistency(n)
            realizable = network_scenario_relations_bruteforce(n)
            for (vi, vj), rels in realizable.items():
                kept = refined.get(vi, vj) if ok else RelationSet(0)
                assert rels.bits & ~kept.bits == 0


def naive_closure(n):
    """Path consistency by sweeping every triple until nothing changes:
    (flag, entries) with the flag False once any entry is empty."""
    entries = {(a, b): n.get(a, b) for a in n.variables for b in n.variables}
    changed = True
    while changed:
        changed = False
        for a, via, b in itertools.permutations(n.variables, 3):
            refined = entries[a, b] & compose_sets(entries[a, via], entries[via, b])
            if refined != entries[a, b]:
                entries[a, b], entries[b, a] = refined, refined.inverse()
                changed = True
    return all(entries.values()), entries


@st.composite
def density_networks(draw):
    """Networks of 2-8 variables whose pairs are constrained with a drawn
    density, from mostly universal to every pair constrained."""
    names = tuple(f"v{i}" for i in range(draw(st.integers(2, 8))))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    n = Qcn.universal(names)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if draw(st.floats(0, 1)) < density:
                n = n.set_constraint(a, b, RelationSet(draw(st.integers(0, UNIVERSAL.bits))))
    return n


@given(density_networks())
@settings(max_examples=200, deadline=None)
def test_path_consistency_agrees_with_the_naive_closure(n):
    refined, ok = path_consistency(n)
    expected_ok, entries = naive_closure(n)
    assert ok is expected_ok
    if ok:
        assert all(refined.get(a, b) == rels for (a, b), rels in entries.items())


@pytest.mark.parametrize("r", range(len(RELATIONS)))
def test_a_universal_operand_composes_to_universal(r):
    # path consistency skips revisions through a universal entry on this premise
    assert compose_masks(1 << r, UNIVERSAL.bits) == UNIVERSAL.bits
    assert compose_masks(UNIVERSAL.bits, 1 << r) == UNIVERSAL.bits


class TestConsistency:
    def test_before_cycle_inconsistent(self):
        n = Qcn.universal(("x", "y", "z"))
        n = n.set_constraint("x", "y", B).set_constraint("y", "z", B)
        n = n.set_constraint("z", "x", B)
        assert not is_consistent(n)

    def test_single_variable_consistent(self):
        assert is_consistent(Qcn.universal(("v",)))

    def test_empty_network_has_one_scenario(self):
        found = list(scenarios(Qcn.universal(())))
        assert len(found) == 1

    def test_two_relation_edge_gives_two_scenarios(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", BM)
        found = list(scenarios(n))
        assert len(found) == 2
        got = {s.get("i", "j").single() for s, _ in found}
        assert got == {Relation.BEFORE, Relation.MEETS}

    def test_agrees_with_bruteforce(self, rng):
        for _ in range(150):
            n = random_network(rng, rng.randint(2, 4))
            assert is_consistent(n) == network_consistent_bruteforce(n)

    def test_scenarios_complete_and_distinct(self, rng):
        # the relation tuples of the scenarios are exactly those realized by
        # the brute-force models, each yielded once
        for _ in range(60):
            n = random_network(rng, rng.randint(2, 4))
            pairs = [(vi, vj) for i, vi in enumerate(n.variables) for vj in n.variables[i + 1:]]
            found = [tuple(s.get(vi, vj).single() for vi, vj in pairs) for s, _ in scenarios(n)]
            realized = {
                tuple(relation_between(model[vi], model[vj]) for vi, vj in pairs)
                for model in network_models_bruteforce(n)
            }
            assert len(found) == len(set(found))
            assert set(found) == realized

    def test_unrealizable_candidate_raises(self, monkeypatch):
        def refuse(scenario):
            raise UnrealizableScenarioError("refused")

        monkeypatch.setattr("twf.qcn.realize_scenario", refuse)
        with pytest.raises(UnrealizableScenarioError):
            next(scenarios(Qcn.universal(("i", "j")).set_constraint("i", "j", B)))

    def test_search_memory_stays_near_one_matrix(self):
        # the search opens a level for each of the hundreds of pairs it
        # branches on here, and its memory must not grow with that depth
        net = sequence_free(parse(tree_doc(1, 150)).extended).network
        assert len(net.variables) >= 60
        closure_peak = traced_peak(lambda: path_consistency(net))
        search_peak = traced_peak(lambda: next(scenarios(net)))
        assert search_peak <= 10 * closure_peak

    def test_scenarios_are_atomic_and_coherent(self, rng):
        n = random_network(rng, 4, tightness=0.8)
        for s, _ in scenarios(n):
            assert s.is_scenario
            for vi in n.variables:
                for vj in n.variables:
                    assert s.get(vi, vj) == s.get(vj, vi).inverse()


# ---------------------------------------------------------------------------
# Reference: the scenario search as it was before it kept an undo trail,
# copying the whole matrix for every trial and keeping one per open level


def reference_scenarios(n):
    m, ok = _closure(n)
    if not ok:
        return
    count = len(m)

    def refinements(matrix, i, j):
        choices = matrix[i][j]
        while choices:
            rel = choices & -choices
            choices ^= rel
            trial = [row[:] for row in matrix]
            trial[i][j] = rel
            trial[j][i] = converse_mask(rel)
            if _pc_bits(trial, deque([(i, j)])):
                yield trial

    stack = [iter([m])]
    while stack:
        matrix = next(stack[-1], None)
        if matrix is None:
            stack.pop()
            continue
        best = None
        best_size = 14
        for i in range(count):
            for j in range(i + 1, count):
                size = matrix[i][j].bit_count()
                if 1 < size < best_size:
                    best, best_size = (i, j), size
        if best is not None:
            stack.append(refinements(matrix, *best))
            continue
        names = n.variables
        scenario = Qcn.universal(names).set_constraints(
            (names[i], names[j], RelationSet(matrix[i][j]))
            for i in range(count)
            for j in range(i + 1, count)
        )
        yield scenario, realize_scenario(scenario)


def test_scenarios_match_the_reference_search(monkeypatch):
    """The first six (scenario, schedule) pairs, in order, on small random
    networks and on dense ones, where most searches hit dead ends."""
    failed_choices = 0

    def counting(m, queue, trail=None):
        nonlocal failed_choices
        ok = _pc_bits(m, queue, trail)
        failed_choices += trail is not None and not ok
        return ok

    monkeypatch.setattr(twf.qcn, "_pc_bits", counting)
    rng = random.Random(20261020)
    small = [random_network(rng, rng.randint(1, 7), rng.random(), 12) for _ in range(2000)]
    dense = [
        random_network(rng, rng.randint(9, 10), rng.uniform(0.9, 1.0), 6, 6) for _ in range(300)
    ]
    backtracked = 0
    for net in small + dense:
        failed_choices = 0
        got = list(itertools.islice(scenarios(net), 6))
        assert got == list(itertools.islice(reference_scenarios(net), 6))
        backtracked += failed_choices > 0
    # undo after a failed choice is exercised, not only undo after a leaf
    assert backtracked >= 100


class TestRealization:
    def test_meets_scenario(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", RelationSet.parse("m"))
        schedule = realize_scenario(n)
        assert schedule["i"].hi == schedule["j"].lo
        assert relation_between(schedule["i"], schedule["j"]) is Relation.MEETS

    def test_equals_scenario_identical_intervals(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "j", RelationSet.parse("eq"))
        schedule = realize_scenario(n)
        assert schedule["i"] == schedule["j"]

    def test_rejects_non_scenario(self):
        with pytest.raises(ValueError):
            realize_scenario(Qcn.universal(("i", "j")))

    def test_unrealizable_scenario_reported(self):
        # an atomic before-cycle admits no schedule
        bad = Qcn.universal(("i", "j", "k"))
        bad = bad.set_constraint("i", "j", B).set_constraint("j", "k", B)
        bad = bad.set_constraint("k", "i", B)
        assert bad.is_scenario
        with pytest.raises(UnrealizableScenarioError) as info:
            realize_scenario(bad)
        assert str(info.value) == "i eq j, scenario wants b"

    def test_tied_endpoints_in_a_cycle_reported(self):
        # i ends with k and j starts where k ends, so i's end and j's start
        # are tied, yet i {b} j orders them
        bad = Qcn.universal(("i", "j", "k"))
        bad = bad.set_constraint("i", "j", B).set_constraint("j", "k", RelationSet.parse("mi"))
        bad = bad.set_constraint("i", "k", RelationSet.parse("f"))
        with pytest.raises(UnrealizableScenarioError) as info:
            realize_scenario(bad)
        assert str(info.value) == "j bi k, scenario wants mi"

    def test_schedules_satisfy_their_network(self, rng):
        verified = 0
        for _ in range(60):
            n = random_network(rng, rng.randint(2, 4))
            for s, schedule in scenarios(n):
                # the schedule handed out is the one realization builds
                assert schedule == realize_scenario(s)
                assert check_schedule(n, schedule)
                verified += 1
                break
        assert verified > 20

    def test_recipe_network_scenario(self):
        # searing finishes exactly when frying finishes, in every scenario
        from twf import corpus_path
        from twf.dsl import parse
        from twf.extended import sequence_free

        doc = parse(corpus_path("recette.twf").read_text(encoding="utf-8"))
        free = sequence_free(doc.extended)
        _, schedule = next(scenarios(free.network))
        searing = schedule["saisir le foie gras"]
        frying = schedule["frire le tournedos"]
        assert relation_between(searing, frying) is Relation.FINISHES
        assert searing.hi == frying.hi


@st.composite
def atomic_networks(draw):
    """Atomic networks of 1-6 variables: the scenario of drawn integer
    intervals with up to three entries redrawn, so that both realizable
    and unrealizable ones occur."""
    names = tuple(f"v{i}" for i in range(draw(st.integers(1, 6))))
    ends = st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True)
    spans = [interval(*sorted(draw(ends))) for _ in names]
    pairs = list(itertools.combinations(range(len(names)), 2))
    redrawn = draw(st.sets(st.sampled_from(pairs), max_size=3)) if pairs else set()
    n = Qcn.universal(names)
    for i, j in pairs:
        if (i, j) in redrawn:
            rel = draw(st.sampled_from(RELATIONS))
        else:
            rel = relation_between(spans[i], spans[j])
        n = n.set_constraint(names[i], names[j], RelationSet.of(rel))
    return n


@given(atomic_networks())
@settings(max_examples=200, deadline=None)
def test_realization_agrees_with_the_model_oracle(n):
    if not network_consistent_bruteforce(n):
        with pytest.raises(UnrealizableScenarioError):
            realize_scenario(n)
        return
    schedule = realize_scenario(n)
    assert check_schedule(n, schedule)
    # endpoints sit on consecutive integer layers from 0, which pins the
    # printed schedule
    values = {p for span in schedule.values() for p in (span.lo, span.hi)}
    assert values == set(range(int(max(values)) + 1))


class TestEntailment:
    def test_refinement_entails_weakening(self):
        n1 = Qcn.universal(("i", "j")).set_constraint("i", "j", B)
        n2 = Qcn.universal(("i", "j")).set_constraint("i", "j", BM)
        assert entails(n1, n2)
        assert not entails(n2, n1)

    def test_composition_consequence(self):
        n1 = Qcn.universal(("i", "j", "k"))
        n1 = n1.set_constraint("i", "j", B).set_constraint("j", "k", B)
        goal = Qcn.universal(("i", "k")).set_constraint("i", "k", B)
        assert entails(n1, goal)

    def test_variable_subset_enforced(self):
        n1 = Qcn.universal(("i",))
        n2 = Qcn.universal(("i", "j")).set_constraint("i", "j", B)
        with pytest.raises(VariableSetError):
            entails(n1, n2)

    def test_inconsistent_network_entails_anything(self):
        n1 = Qcn.universal(("i", "j")).set_constraint("i", "j", B)
        n1 = n1.set_constraint("i", "j", RelationSet.parse("m"))
        n2 = Qcn.universal(("i", "j")).set_constraint("i", "j", RelationSet.parse("d"))
        assert entails(n1, n2)

    def test_reflexive_and_transitive(self, rng):
        nets = [random_network(rng, 3, tightness=0.6, max_rels=6) for _ in range(8)]
        for n in nets:
            assert entails(n, n)
        for n1 in nets:
            for n2 in nets:
                if not entails(n1, n2):
                    continue
                for n3 in nets:
                    if entails(n2, n3):
                        assert entails(n1, n3)

    def test_second_network_without_models(self):
        # a self-constraint that rules out eq leaves n2 without models
        n2 = Qcn.universal(("i",)).set_constraint("i", "i", B)
        assert not entails(Qcn.universal(("i", "j")), n2)
        n1 = Qcn.universal(("i", "j")).set_constraint("i", "j", EMPTY)
        assert entails(n1, n2)


VARIABLES = ("v0", "v1", "v2", "v3")


@st.composite
def entailment_pairs(draw):
    """Networks n1 of up to four variables and n2 on a subset of them;
    n2's entries lean towards weakenings of n1's, and either network may
    constrain a diagonal."""
    rels = st.sets(st.sampled_from(RELATIONS), min_size=1, max_size=5).map(
        lambda chosen: RelationSet.of(*chosen)
    )
    names = VARIABLES[: draw(st.integers(1, 4))]
    n1 = Qcn.universal(names)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            # mostly constrained: a free 4-variable n1 has 23 917 models
            if draw(st.integers(0, 3)):
                n1 = n1.set_constraint(a, b, draw(rels))
    subset = tuple(draw(st.lists(st.sampled_from(names), min_size=1, unique=True)))
    n2 = Qcn.universal(subset)
    for i, a in enumerate(subset):
        for b in subset[i + 1 :]:
            kind = draw(st.sampled_from(["free", "random", "weaker"]))
            if kind == "random":
                n2 = n2.set_constraint(a, b, draw(rels))
            elif kind == "weaker":
                n2 = n2.set_constraint(a, b, n1.get(a, b) | draw(rels))
    if draw(st.integers(0, 9)) == 0:
        v = draw(st.sampled_from(names))
        n1 = n1.set_constraint(v, v, draw(rels))
    if draw(st.integers(0, 4)) == 0:
        v = draw(st.sampled_from(subset))
        n2 = n2.set_constraint(v, v, draw(rels))
    return n1, n2


@given(entailment_pairs())
@settings(max_examples=150, deadline=None)
def test_entails_agrees_with_the_model_oracle(pair):
    # every model of n1 satisfies every entry of n2, its diagonal included
    # (a model meets a diagonal entry only if that entry holds eq)
    n1, n2 = pair
    expected = all(
        relation_between(model[vi], model[vj]) in n2.get(vi, vj)
        for model in network_models_bruteforce(n1)
        for vi in n2.variables
        for vj in n2.variables
    )
    assert entails(n1, n2) is expected
