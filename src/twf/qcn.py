"""Qualitative constraint networks over interval variables.

A network holds a square matrix of relation masks (ints, as defined in
:mod:`twf.allen`) kept converse-coherent at all times; its methods take and
return :class:`RelationSet` values, and only the solver reads the masks.
Path consistency refines the matrix; consistency and scenario search run a
backtracking solver pruned by path consistency, and every scenario found
is realized as a concrete rational schedule before being reported.
Entailment is decided by refutation: one consistency check per entry of
the entailed network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .allen import (
    ENDPOINT_RANKS,
    RELATIONS,
    UNIVERSAL,
    Interval,
    Relation,
    RelationSet,
    compose_halves,
    converse_mask,
    endpoint_relation,
    relation_between,
)


class UnknownVariableError(KeyError):
    """A constraint refers to a variable that is not in the network."""


class VariableSetError(ValueError):
    """Entailment requires the entailed network's variables to be a subset."""


class UnrealizableScenarioError(ValueError):
    """An atomic scenario admits no concrete schedule."""


Schedule = dict[str, Interval]

_EQ = Relation.EQUALS.bit
_ANY = UNIVERSAL.bits
_RANKS = [ENDPOINT_RANKS[r] for r in RELATIONS]  # by bit position


def _replaced(row: tuple[int, ...], k: int, mask: int) -> tuple[int, ...]:
    return row[:k] + (mask,) + row[k + 1:]


@dataclass(frozen=True)
class Qcn:
    """A qualitative constraint network (variables, constraint matrix).

    ``constraints[i][j]`` is the relation mask between variables i and j;
    callers read it as a RelationSet through :meth:`get` or
    :meth:`nontrivial_pairs`.  Diagonal entries are {eq}; off-diagonal
    entries default to the universal set; the matrix always satisfies
    C[j][i] = inverse(C[i][j]).
    """

    variables: tuple[str, ...]
    constraints: tuple[tuple[int, ...], ...]

    @classmethod
    def universal(cls, variables: tuple[str, ...] | list[str] = ()) -> "Qcn":
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        return cls((), ()).with_variable(*names)

    def index(self, variable: str) -> int:
        try:
            return self.variables.index(variable)
        except ValueError:
            raise UnknownVariableError(variable) from None

    def get(self, vi: str, vj: str) -> RelationSet:
        return RelationSet(self.constraints[self.index(vi)][self.index(vj)])

    def with_variable(self, *names: str) -> "Qcn":
        """The network plus an unconstrained variable for each name not yet
        present, appended in first-use order with one copy of the matrix."""
        present = set(self.variables)
        new = tuple(name for name in dict.fromkeys(names) if name not in present)
        if not new:
            return self
        n, k = len(self.variables), len(new)
        rows = tuple(row + (_ANY,) * k for row in self.constraints)
        rows += tuple((_ANY,) * (n + i) + (_EQ,) + (_ANY,) * (k - 1 - i) for i in range(k))
        return Qcn(self.variables + new, rows)

    def set_constraint(self, vi: str, vj: str, rels: RelationSet) -> "Qcn":
        """Intersect ``rels`` into C[vi][vj] (and its converse into C[vj][vi]).

        A self-constraint intersects the {eq} diagonal; anything that rules
        out eq there leaves an empty entry, i.e. an inconsistent network.
        """
        i, j = self.index(vi), self.index(vj)
        rows = list(self.constraints)
        mask = rows[i][j] & rels.bits
        rows[i] = _replaced(rows[i], j, mask)
        if i != j:
            rows[j] = _replaced(rows[j], i, converse_mask(mask))
        return Qcn(self.variables, tuple(rows))

    def nontrivial_pairs(self) -> Iterator[tuple[str, str, RelationSet]]:
        """Upper-triangle entries that actually constrain something."""
        n = len(self.variables)
        for i in range(n):
            for j in range(i + 1, n):
                mask = self.constraints[i][j]
                if mask != _ANY:
                    yield self.variables[i], self.variables[j], RelationSet(mask)

    def degenerate_diagonal(self) -> Iterator[tuple[str, RelationSet]]:
        """Variables whose diagonal entry was constrained away from {eq}."""
        for i, name in enumerate(self.variables):
            if self.constraints[i][i] != _EQ:
                yield name, RelationSet(self.constraints[i][i])

    @property
    def is_scenario(self) -> bool:
        n = len(self.variables)
        return all(
            self.constraints[i][j].bit_count() == 1
            for i in range(n)
            for j in range(i + 1, n)
        )

    def __str__(self) -> str:
        parts = [f"{vi} {{{rels.tokens()}}} {vj}" for vi, vj, rels in self.nontrivial_pairs()]
        return f"Qcn({', '.join(self.variables)}; {'; '.join(parts)})"


# ---------------------------------------------------------------------------
# Path consistency


def _pc_bits(m: list[list[int]], queue: deque[tuple[int, int]]) -> bool:
    """Refine the mask matrix in place, revising every triangle through the
    queued edges (i < j) and through each edge it narrows, to a fixpoint.

    A dequeued edge (i, j) revises (i, k) through j, then (j, k) through i,
    each pass with one left operand whose tables are picked once.  A
    universal entry cannot narrow anything, so none is composed or queued.

    Returns False as soon as an entry becomes empty.
    """
    n = len(m)
    queued = set(queue)
    while queue:
        i, j = queue.popleft()
        queued.discard((i, j))
        for a, via in ((i, j), (j, i)):
            halves = compose_halves(m[a][via])
            row_a, row_via = m[a], m[via]
            for k in range(n):
                right = row_via[k]
                if right == _ANY or k == a or k == via:
                    continue
                low, high = right & 127, right >> 7
                bits = 0
                for low_table, high_table in halves:
                    bits |= low_table[low] | high_table[high]
                refined = row_a[k] & bits
                if refined != row_a[k]:
                    if not refined:
                        row_a[k] = m[k][a] = 0
                        return False
                    row_a[k] = refined
                    m[k][a] = converse_mask(refined)
                    edge = (a, k) if a < k else (k, a)
                    if edge not in queued:
                        queued.add(edge)
                        queue.append(edge)
    return True


def _closure(n: Qcn) -> tuple[list[list[int]], bool]:
    """The network's mask matrix refined from every non-universal edge, and
    whether no entry is empty."""
    m = [list(row) for row in n.constraints]
    count = len(m)
    edges = deque((i, j) for i in range(count) for j in range(i + 1, count) if m[i][j] != _ANY)
    return m, _pc_bits(m, edges) and all(map(all, m))


def path_consistency(n: Qcn) -> tuple[Qcn, bool]:
    """Triangle-propagation fixpoint of the network.

    Returns the refined network and a flag: True while no entry became
    empty, False once an inconsistency surfaced.  Refinement only removes
    relations that cannot take part in any solution.
    """
    m, ok = _closure(n)
    return Qcn(n.variables, tuple(map(tuple, m))), ok


# ---------------------------------------------------------------------------
# Scenario search


def scenarios(n: Qcn) -> Iterator[tuple[Qcn, Schedule]]:
    """All realizable atomic scenarios of the network, each with the
    schedule that realizes it.

    Backtracking over basic-relation choices edge by edge, path consistency
    after every assignment, candidate scenarios re-verified by schedule
    construction before being yielded.  The empty network has exactly one
    (empty) scenario.  A candidate without a schedule would be a solver
    defect and raises UnrealizableScenarioError.
    """
    m, ok = _closure(n)
    if not ok:
        return
    count = len(m)

    def refinements(matrix: list[list[int]], i: int, j: int) -> Iterator[list[list[int]]]:
        choices = matrix[i][j]
        while choices:
            rel = choices & -choices
            choices ^= rel
            trial = [row[:] for row in matrix]
            trial[i][j] = rel
            trial[j][i] = converse_mask(rel)
            # the matrix was closed before this choice, so only triangles
            # through (i, j) can need revising
            if _pc_bits(trial, deque([(i, j)])):
                yield trial

    # depth-first over an explicit stack, so deep searches need no recursion
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
        scenario = Qcn(n.variables, tuple(map(tuple, matrix)))
        yield scenario, realize_scenario(scenario)


def is_consistent(n: Qcn) -> bool:
    """Does at least one realizable scenario exist?"""
    return next(scenarios(n), None) is not None


# ---------------------------------------------------------------------------
# Realization


def realize_scenario(s: Qcn) -> Schedule:
    """A concrete rational schedule witnessing an atomic scenario.

    Every singleton relation fixes the order of its four endpoints
    (:data:`~twf.allen.ENDPOINT_RANKS`), so each endpoint is placed on
    the layer given by how many endpoints lie below it: tied endpoints
    count the same, and a later one counts more.  Every constraint is
    re-checked on the integer layers, which fails exactly when no
    schedule exists, and the layers are returned as rationals.  Endpoint
    ``side`` (0 for the start, 1 for the end) of variable v is point
    2v + side.
    """
    if not s.is_scenario:
        raise ValueError("network is not an atomic scenario")
    count = len(s.variables)
    below = [0, 1] * count  # an end lies above its own start
    for i in range(count):
        row = s.constraints[i]
        for j in range(i + 1, count):
            lo1, hi1, lo2, hi2 = _RANKS[row[j].bit_length() - 1]
            below[2 * i] += (lo2 < lo1) + (hi2 < lo1)
            below[2 * i + 1] += (lo2 < hi1) + (hi2 < hi1)
            below[2 * j] += (lo1 < lo2) + (hi1 < lo2)
            below[2 * j + 1] += (lo1 < hi2) + (hi1 < hi2)

    layer = {b: k for k, b in enumerate(sorted(set(below)))}
    at = [layer[b] for b in below]
    for i in range(count):
        row = s.constraints[i]
        for j in range(i + 1, count):
            got = endpoint_relation(at[2 * i], at[2 * i + 1], at[2 * j], at[2 * j + 1])
            want = RELATIONS[row[j].bit_length() - 1]
            if got is not want:
                raise UnrealizableScenarioError(
                    f"{s.variables[i]} {got.token} {s.variables[j]}, scenario wants {want.token}"
                )
    return {
        name: Interval(Fraction(at[2 * v]), Fraction(at[2 * v + 1]))
        for v, name in enumerate(s.variables)
    }


def check_schedule(n: Qcn, schedule: Mapping[str, Interval]) -> bool:
    """Does a schedule satisfy every constraint of the network?"""
    for vi, vj, rels in n.nontrivial_pairs():
        if relation_between(schedule[vi], schedule[vj]) not in rels:
            return False
    return True


# ---------------------------------------------------------------------------
# Entailment


def entails(n1: Qcn, n2: Qcn) -> bool:
    """Is every model of n1 a model of n2?

    By refutation: n1 entails an entry (vi, vj, R) of n2 exactly when n1
    with (vi, vj) narrowed to the complement of R is inconsistent.  A
    constrained diagonal leaves n2 without models, so then only an
    inconsistent n1 entails it.  n2's variables must all occur in n1.
    """
    missing = set(n2.variables) - set(n1.variables)
    if missing:
        raise VariableSetError(f"variables not in the entailing network: {sorted(missing)}")
    if any(n2.degenerate_diagonal()):
        return not is_consistent(n1)
    return not any(
        is_consistent(n1.set_constraint(vi, vj, UNIVERSAL - rels))
        for vi, vj, rels in n2.nontrivial_pairs()
    )
