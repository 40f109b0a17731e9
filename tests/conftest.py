"""Shared generators and independent oracle helpers for the test suite."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from twf.allen import RELATIONS, Interval, RelationSet
from twf.extended import ExtendedWorkflow, validate
from twf.qcn import Qcn
from twf.semantics import ResolvedInstance, check_model, weak_orders
from twf.workflow import (
    Atomic,
    Conj,
    Disj,
    Loop,
    Seq,
    Workflow,
    atom,
    iter_nodes,
    rename_occurrences,
    resolutions,
    resolve_traced,
)

NAMES = "abcdefgh"


# ---------------------------------------------------------------------------
# Random generation (seeded, for corpus-style tests)


def rand_workflow(
    rng: random.Random,
    max_depth: int = 4,
    max_leaves: int = 5,
    allow_loops: bool = True,
    unique_names: bool = False,
) -> Workflow:
    """A random workflow with at most ``max_leaves`` atoms."""
    pool = iter(NAMES) if unique_names else None

    def leaf() -> Workflow:
        name = next(pool) if pool else rng.choice(NAMES[:4])
        return atom(name)

    def build(depth: int, budget: int) -> tuple[Workflow, int]:
        if depth == 0 or budget <= 1 or rng.random() < 0.35:
            return leaf(), budget - 1
        kinds = ["seq", "conj", "disj"] + (["loop"] if allow_loops else [])
        kind = rng.choice(kinds)
        if kind == "loop":
            body, budget = build(depth - 1, budget)
            return Loop(body), budget
        left, budget = build(depth - 1, budget)
        if budget <= 0:
            return left, budget
        right, budget = build(depth - 1, budget)
        ctor = {"seq": Seq, "conj": Conj, "disj": Disj}[kind]
        return ctor((left, right)), budget

    tree, _ = build(max_depth, max_leaves)
    return rename_occurrences(tree)


def loop_context(tree: Workflow, path) -> tuple:
    """Paths of the loops whose bodies contain the node at ``path``."""
    return tuple(
        p
        for p, n in iter_nodes(tree)
        if isinstance(n, Loop) and len(p) < len(path) and path[: len(p)] == p
    )


def rand_extended(
    rng: random.Random,
    max_depth: int = 3,
    max_leaves: int = 4,
    max_constraints: int = 2,
    max_loops: int = 1,
) -> ExtendedWorkflow:
    """A random valid extended workflow with constraints between its atoms.

    Atom names are unique so they double as reference keys; constraint pairs
    are drawn only among atoms sharing a loop context, which keeps the
    loop-boundary rule satisfied by construction.
    """
    while True:
        tree = rand_workflow(
            rng, max_depth, max_leaves, allow_loops=max_loops > 0, unique_names=True
        )
        loops = [p for p, n in iter_nodes(tree) if isinstance(n, Loop)]
        if len(loops) <= max_loops:
            break

    atoms = [(p, n) for p, n in iter_nodes(tree) if isinstance(n, Atomic)]
    by_context: dict[tuple, list] = {}
    for path, node in atoms:
        by_context.setdefault(loop_context(tree, path), []).append(node.name)

    pairs = []
    for group in by_context.values():
        pairs.extend(itertools.combinations(group, 2))
    rng.shuffle(pairs)
    chosen = pairs[: rng.randint(0, max_constraints)]

    variables = []
    for a, b in chosen:
        for key in (a, b):
            if key not in variables:
                variables.append(key)
    network = Qcn.universal(tuple(variables))
    for a, b in chosen:
        rels = RelationSet.of(*rng.sample(RELATIONS, rng.randint(1, 5)))
        network = network.set_constraint(a, b, rels)
    ew = ExtendedWorkflow(tree, network, {v: v for v in variables})
    assert validate(ew).ok
    return ew


def rand_regular_extended(
    rng: random.Random,
    max_chain: int = 3,
    max_constraints: int = 2,
) -> ExtendedWorkflow:
    """A random extended workflow from the strongly-regular class.

    Sequence edges only ever join atoms or chains of atoms, so every
    sequence anchor of the sequence-free form is an atom; constraints
    relate atoms sharing a loop context.  On this class consistency of
    the sequence-free network provably transfers to a full model.
    """
    pool = iter(NAMES)

    def chain() -> Workflow:
        parts = [Atomic(next(pool)) for _ in range(rng.randint(1, max_chain))]
        return Seq(tuple(parts)) if len(parts) > 1 else parts[0]

    def element(depth: int) -> Workflow:
        roll = rng.random()
        if depth == 0 or roll < 0.5:
            return chain()
        if roll < 0.7:
            return Conj((element(depth - 1), element(depth - 1)))
        if roll < 0.85:
            return Disj((element(depth - 1), element(depth - 1)))
        return Loop(element(depth - 1))

    while True:
        pool = iter(NAMES)
        try:
            tree = rename_occurrences(element(2))
        except StopIteration:
            continue
        break

    by_context: dict[tuple, list] = {}
    for path, node in iter_nodes(tree):
        if isinstance(node, Atomic):
            by_context.setdefault(loop_context(tree, path), []).append(node.name)
    pairs = []
    for group in by_context.values():
        pairs.extend(itertools.combinations(group, 2))
    rng.shuffle(pairs)
    chosen = pairs[: rng.randint(0, max_constraints)]
    variables = []
    for a, b in chosen:
        for key in (a, b):
            if key not in variables:
                variables.append(key)
    network = Qcn.universal(tuple(variables))
    for a, b in chosen:
        rels = RelationSet.of(*rng.sample(RELATIONS, rng.randint(1, 5)))
        network = network.set_constraint(a, b, rels)
    ew = ExtendedWorkflow(tree, network, {v: v for v in variables})
    assert validate(ew).ok
    return ew


def tree_doc(seed: int, budget: int) -> str:
    """A `.twf` document of nested sequences, `and{}`, `or{}` and `loop{}`
    groups over distinct atoms t1, t2, ..., and no written constraint.

    Each group splits its budget evenly among 2-4 parts (a loop passes on
    one less), and an atom ends a branch once the budget is spent or the
    depth passes 8.  Its sequence-free network is wide and sparse:
    ``tree_doc(1, 150)`` has 144 atoms and 62 variables, ``tree_doc(3, 420)``
    374 atoms and 232 variables.
    """
    rng = random.Random(seed)
    names = itertools.count(1)

    def expr(budget: int, depth: int) -> str:
        if budget <= 1 or depth > 8:
            return f"t{next(names)}"
        kind = rng.choices(["seq", "and", "or", "loop"], weights=[2, 1, 1, 1])[0]
        if kind == "loop":
            return f"loop{{ {expr(budget - 1, depth + 1)} }}"
        k = rng.randint(2, 4)
        parts = [expr(budget // k, depth + 1) for _ in range(k)]
        if kind == "seq":
            return f"({' -> '.join(parts)})"
        return f"{kind}{{ {(' ; ' if kind == 'and' else ' | ').join(parts)} }}"

    return f"workflow tree = {expr(budget, 0)}\n"


def chain_doc(steps: int) -> str:
    """A `.twf` document of one sequence of ``steps`` distinct atoms; its
    sequence-free network has ``steps`` variables and ``steps - 1`` edges."""
    return f"workflow chain = {' -> '.join(f's{i}' for i in range(steps))}\n"


def wide_doc(atoms: int) -> str:
    """An `and{}` of ``atoms`` distinct atoms with a {b, m} constraint from
    each atom to the next."""
    names = [f"a{i}" for i in range(atoms)]
    lines = [f"workflow wide = and{{ {' ; '.join(names)} }}", "constraints {"]
    lines += [f"    {a} {{b, m}} {b};" for a, b in zip(names, names[1:])]
    return "\n".join(lines + ["}"]) + "\n"


def traced_peak(fn) -> int:
    """The peak bytes that tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Bounded execution-inclusion oracle (ground truth for subsumption claims)


def _name_bijections(atoms1, atoms2):
    """All name-preserving bijections from atoms2 onto atoms1, as occ maps."""
    by_name1: dict[str, list] = {}
    for a in atoms1:
        by_name1.setdefault(a.name, []).append(a)
    by_name2: dict[str, list] = {}
    for a in atoms2:
        by_name2.setdefault(a.name, []).append(a)
    if sorted(by_name1) != sorted(by_name2):
        return
    if any(len(by_name1[k]) != len(by_name2[k]) for k in by_name1):
        return
    names = sorted(by_name1)
    perm_sets = [itertools.permutations(by_name1[k]) for k in names]
    for combo in itertools.product(*perm_sets):
        mapping = {}
        for key, perm in zip(names, combo):
            for target, source in zip(perm, by_name2[key]):
                mapping[source.occ] = target.occ
        yield mapping


def enumerate_instances(w: Workflow, unroll_bound: int) -> list[ResolvedInstance]:
    """All resolved instances up to the loop bound, one per execution shape."""
    return [
        ResolvedInstance(w, r, *resolve_traced(w, r)) for r, _ in resolutions(w, unroll_bound)
    ]


def executions_included(
    w1: Workflow,
    w2: Workflow,
    bound1: int = 2,
    bound2: int = 3,
    max_atoms: int = 4,
) -> bool:
    """Is every bounded execution of w1 also an execution of w2?

    Every interval assignment of every resolved instance of w1 must be a
    valid execution of some resolved instance of w2 under a name-preserving
    matching of atom occurrences.  Executions larger than ``max_atoms``
    are skipped (bounded oracle).
    """
    instances1 = enumerate_instances(w1, bound1)
    instances2 = enumerate_instances(w2, bound2)

    def covered(inst1, assignment) -> bool:
        for inst2 in instances2:
            if len(inst2.atoms) != len(inst1.atoms):
                continue
            for occ_map in _name_bijections(inst1.atoms, inst2.atoms):
                candidate = {occ2: assignment[occ1] for occ2, occ1 in occ_map.items()}
                if check_model(inst2, candidate):
                    return True
        return False

    for inst1 in instances1:
        if len(inst1.atoms) > max_atoms:
            continue
        occ_index = {a.occ: i for i, a in enumerate(inst1.atoms)}
        le_pairs = []
        for _, node in iter_nodes(inst1.workflow):
            if not isinstance(node, Seq):
                continue
            occs = [[n.occ for _, n in iter_nodes(part) if isinstance(n, Atomic)] for part in node.parts]
            for i, lefts in enumerate(occs):
                for rights in occs[i + 1 :]:
                    for lo in lefts:
                        for ro in rights:
                            le_pairs.append((2 * occ_index[lo] + 1, 2 * occ_index[ro]))
        for layers in weak_orders(len(inst1.atoms), le_pairs):
            assignment = {
                a.occ: Interval(Fraction(layers[2 * i]), Fraction(layers[2 * i + 1]))
                for i, a in enumerate(inst1.atoms)
            }
            if not covered(inst1, assignment):
                return False
    return True


# ---------------------------------------------------------------------------
# Hypothesis strategies


def workflow_strategy(max_leaves: int = 4, names: str = "abc") -> st.SearchStrategy:
    leaves = st.builds(atom, st.sampled_from(list(names)))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Seq, st.lists(children, min_size=2, max_size=3).map(tuple)),
            st.builds(Conj, st.lists(children, min_size=2, max_size=3).map(tuple)),
            st.builds(Disj, st.lists(children, min_size=2, max_size=3).map(tuple)),
            st.builds(Loop, children),
        ),
        max_leaves=max_leaves,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
