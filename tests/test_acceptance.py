"""Acceptance criteria, one test per criterion.

Every test prints a single pass/fail line; tolerances are exact (rational
arithmetic) unless a wall-clock bound is stated.
"""

import contextlib
import random
import time

from conftest import executions_included, rand_extended, rand_workflow
from test_allen import holding_relations
from twf import corpus_path
from twf.allen import (
    RELATIONS,
    Relation,
    RelationSet,
    compose,
    generate_composition_table,
    interval,
    inverse_set,
    relation_between,
)
from twf.cli import main
from twf.dsl import parse
from twf.extended import (
    check_satisfiable,
    check_strong_satisfiable,
    embed,
    find_witness,
    sequence_free,
    variable_paths,
)
from twf.qcn import Qcn, is_consistent
from twf.semantics import AtomBudgetError, check_model, execution_times, hull
from twf.workflow import (
    Atomic,
    Conj,
    Disj,
    Loop,
    Seq,
    SubsumptionVerdict,
    atom,
    conj,
    fingerprint,
    iter_nodes,
    loop,
    normalize,
    rename_occurrences,
    seq,
    subsumes_syntactic,
)


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_composition_table(capsys):
    with criterion(1, "composition table regenerates and matches"):
        code = main(["table", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "169/169 entries match" in out
        generated = generate_composition_table()
        assert len(generated) == 169
        for key, rels in generated.items():
            assert rels == compose(*key)
        assert compose(Relation.FINISHES, Relation.MEETS) == RelationSet.of(Relation.MEETS)


def test_criterion_2_partition_and_laws():
    with criterion(2, "partition over 10000 pairs plus inverse/composition laws"):
        rng = random.Random(20240201)
        from fractions import Fraction

        for _ in range(10_000):
            def draw():
                lo = Fraction(rng.randint(-60, 60), rng.randint(1, 6))
                return interval(lo, lo + Fraction(rng.randint(1, 40), rng.randint(1, 6)))

            i, j = draw(), draw()
            holding = holding_relations(i, j)
            assert len(holding) == 1
            assert relation_between(i, j) is holding[0]
        for r in RELATIONS:
            for s in RELATIONS:
                assert inverse_set(compose(r, s)) == compose(s.inverse, r.inverse)


def test_criterion_3_universal_satisfiability():
    with criterion(3, "500 random plain workflows are satisfiable at bound 3"):
        rng = random.Random(42)
        for _ in range(500):
            w = rand_workflow(rng, max_depth=4, max_leaves=5)
            assert check_satisfiable(embed(w), unroll_bound=3)


def test_criterion_4_workflow_algebra():
    with criterion(4, "normal-form equivalences and sound subsumption rules"):
        a, b, c = Atomic("alpha"), Atomic("beta"), Atomic("gamma")
        # commutativity, associativity, flattening
        assert normalize(Conj((a, b))) == normalize(Conj((b, a)))
        assert normalize(Disj((a, b))) == normalize(Disj((b, a)))
        assert normalize(Conj((Conj((a, b)), c))) == normalize(Conj((a, Conj((b, c)))))
        assert normalize(Disj((Disj((a, b)), c))) == normalize(Disj((a, Disj((b, c)))))
        flat = normalize(Conj((Conj((a, b)), Conj((Atomic("alpha"), c)))))
        names = [part.name for part in flat.parts]
        assert names == ["alpha", "alpha", "beta", "gamma"]
        # idempotence
        assert fingerprint(normalize(Disj((a, Atomic("alpha"))))) == fingerprint(normalize(a))
        assert fingerprint(normalize(Loop(Loop(a)))) == fingerprint(normalize(Loop(a)))

        # subsumption rules, each confirmed by the execution oracle
        phi = rename_occurrences(seq(atom("alpha"), atom("beta")))
        assert subsumes_syntactic(phi, loop(seq(atom("alpha"), atom("beta")))) is SubsumptionVerdict.HOLDS
        assert executions_included(phi, loop(seq(atom("alpha"), atom("beta"))), 1, 3)

        absorbed = rename_occurrences(Seq((Loop(atom("alpha")), atom("alpha"))))
        target = rename_occurrences(loop(atom("alpha")))
        assert subsumes_syntactic(absorbed, target) is SubsumptionVerdict.HOLDS
        assert executions_included(absorbed, target, 2, 3)

        chain = rename_occurrences(seq(atom("alpha"), atom("beta")))
        flatpair = rename_occurrences(conj(atom("alpha"), atom("beta")))
        assert subsumes_syntactic(chain, flatpair) is SubsumptionVerdict.HOLDS
        assert executions_included(chain, flatpair, 2, 2)


def test_criterion_5_sequence_free():
    with criterion(5, "sequence elimination: exact constraints and equisatisfiability"):
        free = sequence_free(
            embed(rename_occurrences(seq(atom("alpha"), atom("beta"), atom("gamma"))))
        )
        expected = normalize(Conj((Atomic("alpha"), Conj((Atomic("beta"), Atomic("gamma"))))))
        assert fingerprint(free.workflow) == fingerprint(expected)
        got = {(vi, vj, rels.tokens()) for vi, vj, rels in free.network.nontrivial_pairs()}
        assert got == {("alpha", "beta", "b m"), ("beta", "gamma", "b m")}

        rng = random.Random(7)
        agreed = 0
        for _ in range(500):
            ew = rand_extended(rng, max_leaves=3, max_loops=1)
            out = sequence_free(ew)
            assert not any(isinstance(n, Seq) for _, n in iter_nodes(out.workflow))
            try:
                assert check_satisfiable(ew, unroll_bound=2) == check_satisfiable(
                    out, unroll_bound=2
                )
                agreed += 1
            except AtomBudgetError:
                pass
        assert agreed >= 450


def test_criterion_6_strong_implies_plain(capsys):
    with criterion(6, "strong satisfiability implies satisfiability; converse fails"):
        from conftest import rand_regular_extended

        rng = random.Random(11)
        for _ in range(250):
            ew = rand_regular_extended(rng)
            if check_strong_satisfiable(ew):
                try:
                    assert check_satisfiable(ew, unroll_bound=2)
                except AtomBudgetError:
                    pass
        for name in ("fig2b.twf", "recette.twf", "seqchain.twf"):
            ew = parse(corpus_path(name).read_text(encoding="utf-8")).extended
            if check_strong_satisfiable(ew):
                assert check_satisfiable(ew)

        path = str(corpus_path("counterexample.twf"))
        assert main(["strong-check", path]) == 1
        capsys.readouterr()
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "witness schedule:" in out
        ew = parse(corpus_path("counterexample.twf").read_text(encoding="utf-8")).extended
        model = find_witness(ew)
        assert check_model(model.instance, model.assignment, ew.network, variable_paths(ew))


def test_criterion_7_solver_oracle_agreement(capsys):
    with criterion(7, "oracle-verify: 500 instances, zero disagreements"):
        code = main(["oracle-verify", "--instances", "500", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "500 networks (<=4 variables), 0 disagreements" in out
        assert "0 removed a realizable relation" in out
        assert "result: ok" in out


def test_criterion_8_recipe(capsys):
    with criterion(8, "recipe checks pass and the witness honours both constraints"):
        path = str(corpus_path("recette.twf"))
        assert main(["strong-check", path]) == 0
        assert main(["check", path]) == 0
        capsys.readouterr()

        doc = parse(corpus_path("recette.twf").read_text(encoding="utf-8"))
        ew = doc.extended
        model = find_witness(ew)
        assert model is not None
        paths = variable_paths(ew)
        searing = hull(execution_times(model, paths["saisir le foie gras"]))
        frying = hull(execution_times(model, paths["frire le tournedos"]))
        assert searing.hi == frying.hi
        assert relation_between(searing, frying) is Relation.FINISHES
        garnish = hull(execution_times(model, paths["garnir"]))
        serving = hull(execution_times(model, paths["servir"]))
        assert relation_between(garnish, serving) is Relation.MEETS
        assert garnish.hi == serving.lo


def test_criterion_9_scaling_smoke():
    with criterion(9, "8-variable consistent networks solve in under 5 s"):
        rng = random.Random(2024)
        names = tuple(f"v{i}" for i in range(8))
        worst = 0.0
        for _ in range(5):
            schedule = {}
            for name in names:
                lo = rng.randint(0, 14)
                schedule[name] = interval(lo, lo + rng.randint(1, 6))
            network = Qcn.universal(names)
            for i in range(8):
                for j in range(i + 1, 8):
                    base = relation_between(schedule[names[i]], schedule[names[j]])
                    extras = rng.sample(RELATIONS, rng.randint(0, 2))
                    network = network.set_constraint(
                        names[i], names[j], RelationSet.of(base, *extras)
                    )
            started = time.monotonic()
            assert is_consistent(network)
            elapsed = time.monotonic() - started
            worst = max(worst, elapsed)
            assert elapsed < 5.0
        print(f"worst 8-variable solve: {worst:.3f}s", end=" ")
