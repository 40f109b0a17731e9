"""Constraint networks: construction, path consistency, scenario search,
realization and entailment."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twf.allen import (
    EMPTY,
    RELATIONS,
    UNIVERSAL,
    Relation,
    RelationSet,
    compose_masks,
    compose_sets,
    interval,
    relation_between,
)
from twf.qcn import (
    Qcn,
    UnknownVariableError,
    UnrealizableScenarioError,
    VariableSetError,
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


def random_network(rng, size, tightness=0.7, max_rels=4):
    names = tuple(f"v{i}" for i in range(size))
    network = Qcn.universal(names)
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < tightness:
                rels = RelationSet.of(*rng.sample(RELATIONS, rng.randint(1, max_rels)))
                network = network.set_constraint(names[i], names[j], rels)
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
        assert list(n.degenerate_diagonal()) == [("i", RelationSet(0))]
        assert not is_consistent(n)

    def test_with_variable_keeps_constraints(self):
        n = Qcn.universal(("i", "j")).set_constraint("i", "i", B).set_constraint("i", "j", BM)
        grown = n.with_variable("k")
        assert grown.variables == ("i", "j", "k")
        assert list(grown.degenerate_diagonal()) == [("i", RelationSet(0))]
        assert list(grown.nontrivial_pairs()) == [("i", "j", BM)]
        assert grown.get("k", "k") == RelationSet.parse("eq")
        assert not is_consistent(grown)


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

    def test_scenarios_are_atomic_and_coherent(self, rng):
        n = random_network(rng, 4, tightness=0.8)
        for s, _ in scenarios(n):
            assert s.is_scenario
            for vi in n.variables:
                for vj in n.variables:
                    assert s.get(vi, vj) == s.get(vj, vi).inverse()


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
