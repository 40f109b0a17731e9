"""Brute-force model search for constrained workflows.

This module enumerates bounded executions directly from the model theory
and is deliberately naive: it serves as ground truth for the constraint
solver, the rewrite rules and the composition table, so it must not share
code paths with any of them.  It never calls composition or path
consistency; of :mod:`twf.allen` it reads only the definition of the
relations by endpoint order (``endpoint_relation``, ``ENDPOINT_RANKS``).

An execution of a resolved (loop-free, choice-free) workflow assigns one
closed rational interval of positive length to every atom occurrence.  Only
the relative order of the endpoints matters for sequence conditions and
qualitative constraints, so the search enumerates weak orders of the
endpoints (orders with ties), maps order layers to the integer rationals
0, 1, 2, ... and checks the candidate:

  * each part of a sequence node must finish no later than the next part
    starts;
  * every network constraint whose two ends are executed must hold between
    the convex hulls of the ends' execution times; constraints touching an
    unexecuted branch of a choice are vacuously satisfied;
  * constraints between nodes inside a loop body are checked within each
    unrolled iteration independently, while the loop node itself spans all
    of its iterations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .allen import (
    ENDPOINT_RANKS,
    UNIVERSAL,
    Interval,
    RelationSet,
    endpoint_relation,
    relation_between,
)
from .qcn import Qcn
from .workflow import (
    Atomic,
    Path,
    Resolution,
    Seq,
    TracedAtom,
    Workflow,
    iter_nodes,
    resolutions,
    resolve_traced,
    shape_census,
)

DEFAULT_ATOM_BUDGET = 7


class AtomBudgetError(RuntimeError):
    """The bounded search had to skip executions larger than the atom budget.

    Raised only when no model was found among the in-budget executions, so
    the caller cannot distinguish "unsatisfiable" from "too large".
    """


class NotExecutedError(ValueError):
    """The addressed subworkflow is not executed under the model's resolution."""


@dataclass(frozen=True)
class ResolvedInstance:
    """One execution shape of a workflow: a resolution plus its resolved tree."""

    source: Workflow
    resolution: Resolution
    workflow: Workflow
    atoms: tuple[TracedAtom, ...]


@dataclass(frozen=True)
class Model:
    """A witnessed execution: a resolved instance with concrete intervals."""

    instance: ResolvedInstance
    assignment: dict[int, Interval]

    @property
    def resolution(self) -> Resolution:
        return self.instance.resolution

    def atom_intervals(self) -> list[tuple[TracedAtom, Interval]]:
        return [(a, self.assignment[a.occ]) for a in self.instance.atoms]


# ---------------------------------------------------------------------------
# Execution times and hulls


def hull(intervals: Iterable[Interval]) -> Interval:
    """The smallest interval containing every interval of a non-empty union."""
    items = list(intervals)
    if not items:
        raise ValueError("hull of an empty union")
    return Interval(min(i.lo for i in items), max(i.hi for i in items))


def enclosing_loops(instance: ResolvedInstance, node: Path) -> tuple[Path, ...]:
    """Paths of the loop nodes whose bodies (strictly) contain ``node``."""
    unrolls = instance.resolution.unrolls
    return tuple(node[:depth] for depth in range(len(node)) if node[:depth] in unrolls)


def _atoms_under(
    instance: ResolvedInstance,
    node: Path,
    context: Mapping[Path, int],
) -> list[TracedAtom]:
    depth = len(node)
    out = []
    for a in instance.atoms:
        if a.source[:depth] != node:
            continue
        iters = dict(a.iterations)
        if all(iters.get(lp) == idx for lp, idx in context.items()):
            out.append(a)
    return out


def execution_times(
    model: Model,
    node: Path,
    context: Mapping[Path, int] | Sequence[tuple[Path, int]] = (),
) -> tuple[Interval, ...]:
    """The union of intervals during which the node executes.

    ``context`` may pin iteration indices of enclosing loops; without it,
    all iterations contribute.  Raises NotExecutedError when the node is
    not executed under the model's resolution.
    """
    ctx = dict(context)
    if not model.resolution.executes(node):
        raise NotExecutedError(f"node at {node!r} is not executed")
    atoms = _atoms_under(model.instance, node, ctx)
    if not atoms:
        raise NotExecutedError(f"node at {node!r} has no execution in context {ctx!r}")
    return tuple(model.assignment[a.occ] for a in atoms)


# ---------------------------------------------------------------------------
# Model checking


def _subtree_occs(node: Workflow) -> list[int]:
    return [n.occ for _, n in iter_nodes(node) if isinstance(n, Atomic)]


def _sequence_conditions(resolved: Workflow) -> list[tuple[list[int], list[int]]]:
    """(earlier occs, later occs) for every two consecutive parts of every
    sequence node of a resolved tree.

    Intervals have positive length, so these imply the ordering of every
    two parts further apart.
    """
    out = []
    for _, node in iter_nodes(resolved):
        if isinstance(node, Seq):
            occs = [_subtree_occs(part) for part in node.parts]
            out.extend(zip(occs, occs[1:]))
    return out


def _iteration_contexts(
    instance: ResolvedInstance, loops: tuple[Path, ...]
) -> Iterator[dict[Path, int]]:
    """Every combination of iteration indexes of the loops, the first loop
    outermost."""
    unrolls = instance.resolution.unrolls
    for indexes in itertools.product(*(range(unrolls[lp]) for lp in loops)):
        yield dict(zip(loops, indexes))


def _constraint_obligations(
    instance: ResolvedInstance,
    network: Qcn,
    var_paths: Mapping[str, Path],
) -> list[tuple[list[int], list[int], RelationSet]]:
    """Hull obligations (left occs, right occs, allowed relations), one per
    network entry whose ends are executed, per iteration of their loops.

    A self-constraint is an entry like any other: its obligation relates
    a hull to itself, which only eq satisfies.
    """
    obligations: list[tuple[list[int], list[int], RelationSet]] = []
    for vi, vj, rels in network.nontrivial_pairs():
        pi = _require_path(var_paths, vi)
        pj = _require_path(var_paths, vj)
        if not (instance.resolution.executes(pi) and instance.resolution.executes(pj)):
            continue  # vacuous: an unchosen branch never runs
        loops_i = enclosing_loops(instance, pi)
        loops_j = enclosing_loops(instance, pj)
        if loops_i != loops_j:
            raise ValueError(
                f"constraint {vi}/{vj} crosses a loop boundary; validate the workflow first"
            )
        for ctx in _iteration_contexts(instance, loops_i):
            occs_i = [a.occ for a in _atoms_under(instance, pi, ctx)]
            occs_j = [a.occ for a in _atoms_under(instance, pj, ctx)]
            if not occs_i or not occs_j:
                continue
            obligations.append((occs_i, occs_j, rels))
    return obligations


def _require_path(var_paths: Mapping[str, Path], name: str) -> Path:
    try:
        return var_paths[name]
    except KeyError:
        raise ValueError(f"network variable {name!r} is not mapped to a subworkflow") from None


def check_model(
    instance: ResolvedInstance,
    assignment: Mapping[int, Interval],
    network: Qcn | None = None,
    var_paths: Mapping[str, Path] | None = None,
) -> bool:
    """Is the assignment a model of the resolved instance plus network?

    Checks every sequence condition of the resolved tree and every hull
    constraint obligation of the network (per iteration for in-loop
    constraints).  Missing assignment entries raise KeyError.
    """
    for a in instance.atoms:
        if a.occ not in assignment:
            raise KeyError(f"assignment misses atom occurrence {a.occ} ({a.name})")
    for left, right in _sequence_conditions(instance.workflow):
        left_end = max(assignment[occ].hi for occ in left)
        right_start = min(assignment[occ].lo for occ in right)
        if not left_end <= right_start:
            return False
    if network is None:
        return True
    for occs_i, occs_j, rels in _constraint_obligations(instance, network, var_paths or {}):
        hull_i = hull(assignment[o] for o in occs_i)
        hull_j = hull(assignment[o] for o in occs_j)
        if relation_between(hull_i, hull_j) not in rels:
            return False
    return True


# ---------------------------------------------------------------------------
# Weak-order enumeration

# A hull obligation (starts_i, starts_j, allowed): bit masks of the start
# endpoints of two non-empty atom sets, and the mask of the relations allowed
# between the hulls of the two sets.  An atom's end is the bit above its
# start, so a set's end mask is its start mask shifted left by one.
Hull = tuple[int, int, int]


def _next_group_table() -> list[list[int]]:
    """For each set of hull endpoints (lo1, hi1, lo2, hi2 as bits 0..3)
    already placed and each group placed next, tied, the mask of the
    relations whose endpoint order puts exactly that group next."""
    table = [[0] * 16 for _ in range(16)]
    for rel, ranks in ENDPOINT_RANKS.items():
        placed = 0
        for rank in range(max(ranks) + 1):
            group = sum(1 << k for k, r in enumerate(ranks) if r == rank)
            table[placed][group] |= rel.bit
            placed |= group
    return table


_NEXT_GROUP = _next_group_table()


def weak_orders(
    atom_count: int,
    le_pairs: Sequence[tuple[int, int]] = (),
    hulls: Sequence[Hull] = (),
) -> Iterator[tuple[int, ...]]:
    """All weak orders of the 2m atom endpoints, as layer assignments.

    Endpoint 2a is the start of atom a and endpoint 2a+1 its end; a start
    always lies strictly before its end.  ``le_pairs`` (x, y) additionally
    force layer[x] <= layer[y], and only orders under which every hull
    obligation (see Hull above) holds are yielded.  An obligation that
    allows no relation rules out every order, so then nothing is yielded
    and nothing enumerated.  Enumeration order is deterministic.
    """
    if any(allowed == 0 for _, _, allowed in hulls):
        return
    n = 2 * atom_count
    full = (1 << n) - 1
    ends = full // 3 << 1  # the odd bits
    preds = [0] * n
    for x, y in le_pairs:
        preds[y] |= 1 << x
    layers = [0] * n

    # A pending obligation also carries its end masks, which of its four
    # hull endpoints are placed and the relations still possible.  A hull
    # starts with the first of its starts and ends with the last of its
    # ends; once all four are placed one relation is possible, so no
    # obligation outlives the last layer.
    def rec(
        remaining: int, depth: int, pending: list[tuple[int, ...]]
    ) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(layers)
            return
        # a start, or an end whose start is placed
        allowed = remaining & ~(remaining << 1 & ends)
        sub = allowed
        while sub:
            rest = remaining & ~sub
            # a layer written for a group rejected here is rewritten before
            # any leaf reads it, since a leaf places every endpoint
            chosen = sub
            while chosen:
                bit = chosen & -chosen
                e = bit.bit_length() - 1
                if preds[e] & rest:
                    break
                layers[e] = depth
                chosen ^= bit
            else:
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
                    possible &= _NEXT_GROUP[done][now ^ done]
                    if not possible & rels:
                        break
                    if possible & ~rels:
                        still.append((s1, e1, s2, e2, rels, now, possible))
                else:
                    yield from rec(rest, depth + 1, still)
            sub = (sub - 1) & allowed

    seeded = [(s1, s1 << 1, s2, s2 << 1, rels, 0, UNIVERSAL.bits) for s1, s2, rels in hulls]
    yield from rec(full, 0, seeded)


# ---------------------------------------------------------------------------
# Model search


def _search_plan(
    instance: ResolvedInstance,
    network: Qcn | None,
    var_paths: Mapping[str, Path],
) -> tuple[list[tuple[int, int]], list[Hull]]:
    """Sequence orderings and hull obligations for one instance; an
    obligation that allows no relation leaves the instance without models."""
    occ_index = {a.occ: i for i, a in enumerate(instance.atoms)}
    le_pairs: list[tuple[int, int]] = []
    for left, right in _sequence_conditions(instance.workflow):
        for lo in left:
            for ro in right:
                le_pairs.append((2 * occ_index[lo] + 1, 2 * occ_index[ro]))
    hulls: list[Hull] = []
    if network is not None:
        for occs_i, occs_j, rels in _constraint_obligations(instance, network, var_paths):
            ai = [occ_index[o] for o in occs_i]
            aj = [occ_index[o] for o in occs_j]
            hulls.append(hull_obligation(ai, aj, rels))
    return le_pairs, hulls


def hull_obligation(ai: list[int], aj: list[int], rels: RelationSet) -> Hull:
    """The hulls over two atom sets must relate within rels."""
    return sum(1 << 2 * a for a in ai), sum(1 << 2 * a for a in aj), rels.bits


def _over_budget(atom_budget: int, skipped: int, smallest: int) -> AtomBudgetError:
    return AtomBudgetError(
        f"no model within the atom budget ({atom_budget}); "
        f"shapes skipped: {skipped}, the smallest with {smallest} atoms"
    )


def find_model(
    w: Workflow,
    network: Qcn | None = None,
    var_paths: Mapping[str, Path] | None = None,
    *,
    unroll_bound: int = 3,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
    refute: Optional[Callable[[int, list[tuple[int, int]], list[Hull]], bool]] = None,
) -> Optional[Model]:
    """First bounded model of the constrained workflow, if any.

    Iterates resolutions up to the loop bound, enumerates endpoint weak
    orders for each, and returns the first candidate that passes
    check_model.  Execution shapes with more atoms than ``atom_budget``
    are counted and skipped without being resolved, and those running a
    loop more than atom_budget + 1 times are counted by the shape census
    and never listed.  If nothing was found and something was skipped,
    the verdict is indeterminate and AtomBudgetError is raised instead of
    None; when every shape is over the budget, the census alone gives
    that verdict.
    A shape whose search plan ``refute(atom_count, le_pairs, hulls)``
    proves model-free is skipped unsearched; without ``refute`` the search
    shares no code with the solver it arbitrates for.
    """
    if unroll_bound < 1:
        raise ValueError(f"loop bound must be >= 1, got {unroll_bound}")
    count, smallest = shape_census(w, unroll_bound)
    if smallest > atom_budget:
        raise _over_budget(atom_budget, count, smallest)
    var_paths = var_paths or {}
    skipped: list[int] = []
    # each iteration adds an atom, so a loop run more than atom_budget + 1
    # times is over the budget and larger than the listed shape that runs
    # it atom_budget + 1 times.  The census counted every shape, so once
    # the in-budget ones are taken off, count is the number skipped
    for resolution, size in resolutions(w, min(unroll_bound, atom_budget + 1)):
        if size > atom_budget:
            skipped.append(size)
            continue
        count -= 1
        instance = ResolvedInstance(w, resolution, *resolve_traced(w, resolution))
        le_pairs, hulls = _search_plan(instance, network, var_paths)
        if refute is not None and refute(len(instance.atoms), le_pairs, hulls):
            continue
        for layers in weak_orders(len(instance.atoms), le_pairs, hulls):
            assignment = {
                a.occ: Interval(Fraction(layers[2 * i]), Fraction(layers[2 * i + 1]))
                for i, a in enumerate(instance.atoms)
            }
            if check_model(instance, assignment, network, var_paths):
                return Model(instance, assignment)
            raise RuntimeError("search produced a candidate that fails verification")
    if count:
        raise _over_budget(atom_budget, count, min(skipped))
    return None


# ---------------------------------------------------------------------------
# Network-level brute force (independent cross-check of the solver)


def _network_hulls(n: Qcn) -> list[Hull]:
    return [(1 << 2 * i, 1 << 2 * j, mask) for (i, j), mask in n.edges.items()]


def network_models_bruteforce(n: Qcn) -> Iterator[dict[str, Interval]]:
    """Solutions of a constraint network, straight from endpoint orders.

    Enumerates weak orders of the 2|V| interval endpoints and keeps those
    satisfying every constraint; never touches composition tables or path
    consistency, so it can arbitrate for the solver.
    """
    for layers in weak_orders(len(n.variables), (), _network_hulls(n)):
        yield {
            name: Interval(Fraction(layers[2 * i]), Fraction(layers[2 * i + 1]))
            for i, name in enumerate(n.variables)
        }


def network_consistent_bruteforce(n: Qcn) -> bool:
    return next(network_models_bruteforce(n), None) is not None


def network_scenario_relations_bruteforce(n: Qcn) -> dict[tuple[str, str], RelationSet]:
    """Per-edge union of relations over every solution of the network."""
    count = len(n.variables)
    union = {(i, j): 0 for i in range(count) for j in range(i + 1, count)}
    for layers in weak_orders(count, (), _network_hulls(n)):
        for (i, j) in union:
            rel = endpoint_relation(
                layers[2 * i], layers[2 * i + 1], layers[2 * j], layers[2 * j + 1]
            )
            union[(i, j)] |= rel.bit
    return {
        (n.variables[i], n.variables[j]): RelationSet(bits)
        for (i, j), bits in union.items()
    }
