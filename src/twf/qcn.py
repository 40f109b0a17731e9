"""Qualitative constraint networks over interval variables.

A network holds only its constraining entries, a self-constraint among
them: relation masks (ints, as defined in :mod:`twf.allen`) keyed by pairs
of variable positions.  Its methods take and return :class:`RelationSet`
values.  Only the solver reads the masks, in an n×n matrix it builds from
them: path consistency refines the matrix; consistency and scenario search
run a backtracking solver pruned by path consistency, and every scenario
found is realized as a concrete rational schedule before being reported.
Entailment is decided by refutation: one consistency check per entry of
the entailed network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .allen import (
    ENDPOINT_RANKS,
    RELATIONS,
    UNIVERSAL,
    Interval,
    Relation,
    RelationSet,
    compose_rows,
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


@dataclass(frozen=True)
class Qcn:
    """A qualitative constraint network (variables, constraint edges).

    ``edges[i, j]``, for i <= j, is the relation mask between variables i
    and j, and its converse relates j to i; callers read it as a
    RelationSet through :meth:`get` or :meth:`nontrivial_pairs`.  Only
    entries that differ from the default are kept, in row-major order: a
    missing diagonal entry is {eq} and a missing off-diagonal one universal,
    so a stored diagonal entry is the empty one a self-constraint left.
    """

    variables: tuple[str, ...]
    edges: dict[tuple[int, int], int]

    @classmethod
    def universal(cls, variables: tuple[str, ...] | list[str] = ()) -> "Qcn":
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        return cls(names, {})

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    def index(self, variable: str) -> int:
        try:
            return self._positions[variable]
        except KeyError:
            raise UnknownVariableError(variable) from None

    def get(self, vi: str, vj: str) -> RelationSet:
        i, j = self.index(vi), self.index(vj)
        mask = self.edges.get((min(i, j), max(i, j)), _EQ if i == j else _ANY)
        return RelationSet(mask if i <= j else converse_mask(mask))

    def with_variable(self, *names: str) -> "Qcn":
        """The network plus an unconstrained variable for each name not yet
        present, appended in first-use order."""
        new = tuple(name for name in dict.fromkeys(names) if name not in self._positions)
        return Qcn(self.variables + new, self.edges) if new else self

    def set_constraints(self, constraints: Iterable[tuple[str, str, RelationSet]]) -> "Qcn":
        """Intersect each ``(vi, vj, rels)`` into C[vi][vj] (and its converse
        into C[vj][vi]), all in one new network.

        A self-constraint intersects the {eq} diagonal; anything that rules
        out eq there leaves an empty entry, i.e. an inconsistent network.
        """
        edges = dict(self.edges)
        for vi, vj, rels in constraints:
            i, j, mask = self.index(vi), self.index(vj), rels.bits
            if i > j:
                i, j, mask = j, i, converse_mask(mask)
            edges[i, j] = edges.get((i, j), _EQ if i == j else _ANY) & mask
        kept = {ij: m for ij, m in sorted(edges.items()) if m != (_EQ if ij[0] == ij[1] else _ANY)}
        return Qcn(self.variables, kept)

    def set_constraint(self, vi: str, vj: str, rels: RelationSet) -> "Qcn":
        """:meth:`set_constraints` with one constraint."""
        return self.set_constraints(((vi, vj, rels),))

    def nontrivial_pairs(self) -> Iterator[tuple[str, str, RelationSet]]:
        """Every entry that constrains something, a variable's own included, row-major."""
        for (i, j), mask in self.edges.items():
            yield self.variables[i], self.variables[j], RelationSet(mask)

    @property
    def is_scenario(self) -> bool:
        # one relation per pair of distinct variables: a stored diagonal entry is empty
        count = len(self.variables)
        masks = self.edges.values()
        return len(masks) == count * (count - 1) // 2 and all(m.bit_count() == 1 for m in masks)

    def __str__(self) -> str:
        parts = [f"{vi} {{{rels.tokens()}}} {vj}" for vi, vj, rels in self.nontrivial_pairs()]
        return f"Qcn({', '.join(self.variables)}; {'; '.join(parts)})"


def _snapshot(variables: tuple[str, ...], m: list[list[int]]) -> Qcn:
    """The network that a mask matrix of the solver holds."""
    edges = {}
    for i, row in enumerate(m):
        if row[i] != _EQ:
            edges[i, i] = row[i]
        for j in range(i + 1, len(row)):
            if row[j] != _ANY:
                edges[i, j] = row[j]
    return Qcn(variables, edges)


# ---------------------------------------------------------------------------
# Path consistency


def _pc_bits(
    m: list[list[int]], queue: deque[tuple[int, int]], trail: list | None = None
) -> bool:
    """Refine the mask matrix in place, revising every triangle through the
    queued edges (i < j) and through each edge it narrows, to a fixpoint.

    A dequeued edge (i, j) revises (i, k) through j, then (j, k) through i,
    each pass with one left operand whose four tables are picked once.  A
    universal entry cannot narrow anything, so none is composed or queued.

    Logs each narrowing on ``trail``, if given; returns False once an entry is empty.
    """
    n = len(m)
    queued = set(queue)
    while queue:
        i, j = queue.popleft()
        queued.discard((i, j))
        for a, via in ((i, j), (j, i)):
            ll, lh, hl, hh = compose_rows(m[a][via])
            row_a, row_via = m[a], m[via]
            for k in range(n):
                right = row_via[k]
                if right == _ANY or k == a or k == via:
                    continue
                low, high = right & 127, right >> 7
                refined = row_a[k] & (ll[low] | lh[high] | hl[low] | hh[high])
                if refined != row_a[k]:
                    if trail is not None:
                        trail.append((a, k, row_a[k]))
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
    count = len(n.variables)
    m = [[_ANY] * count for _ in range(count)]
    for i, row in enumerate(m):
        row[i] = _EQ
    for (i, j), mask in n.edges.items():
        m[i][j], m[j][i] = mask, converse_mask(mask)
    queue = deque(ij for ij in n.edges if ij[0] != ij[1])
    return m, _pc_bits(m, queue) and all(n.edges.values())


def path_consistency(n: Qcn) -> tuple[Qcn, bool]:
    """Triangle-propagation fixpoint of the network.

    Returns the refined network and a flag: True while no entry became
    empty, False once an inconsistency surfaced.  Refinement only removes
    relations that cannot take part in any solution.
    """
    m, ok = _closure(n)
    return _snapshot(n.variables, m), ok


# ---------------------------------------------------------------------------
# Scenario search


def scenarios(n: Qcn) -> Iterator[tuple[Qcn, Schedule]]:
    """All realizable atomic scenarios of the network, each with the
    schedule that realizes it.

    Backtracking over basic-relation choices edge by edge on one matrix, path
    consistency after every assignment, undone by popping a trail of its
    narrowings; candidates are re-verified by schedule construction.  The
    empty network has exactly one (empty) scenario.  A candidate without a
    schedule would be a solver defect and raises UnrealizableScenarioError.
    """
    m, ok = _closure(n)
    if not ok:
        return
    # a frame (i, j, untried relations, trail length) per open edge, and no
    # copies: memory stays one matrix plus the trail, however deep the search
    trail, frames = [], []
    while True:
        best, best_size = None, 14
        for i, row in enumerate(m):
            for j in range(i + 1, len(row)):
                size = row[j].bit_count()
                if 1 < size < best_size:
                    best, best_size = (i, j, row[j]), size
                    if size == 2:  # no entry is smaller
                        break
            if best_size == 2:
                break
        if best is None:
            scenario = _snapshot(n.variables, m)
            yield scenario, realize_scenario(scenario)
        else:
            frames.append((*best, len(trail)))
        while frames:
            i, j, choices, mark = frames.pop()
            while len(trail) > mark:
                a, k, old = trail.pop()
                m[a][k], m[k][a] = old, converse_mask(old)
            if choices:
                rel = choices & -choices
                frames.append((i, j, choices ^ rel, mark))
                trail.append((i, j, m[i][j]))
                m[i][j], m[j][i] = rel, converse_mask(rel)
                # the matrix was closed before this choice, so only triangles
                # through (i, j) can need revising
                if _pc_bits(m, deque([(i, j)]), trail):
                    break
        else:
            return


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
    pairs = [(i, j, mask.bit_length() - 1) for (i, j), mask in s.edges.items()]
    below = [0, 1] * count  # an end lies above its own start
    for i, j, r in pairs:
        lo1, hi1, lo2, hi2 = _RANKS[r]
        below[2 * i] += (lo2 < lo1) + (hi2 < lo1)
        below[2 * i + 1] += (lo2 < hi1) + (hi2 < hi1)
        below[2 * j] += (lo1 < lo2) + (hi1 < lo2)
        below[2 * j + 1] += (lo1 < hi2) + (hi1 < hi2)

    layer = {b: k for k, b in enumerate(sorted(set(below)))}
    at = [layer[b] for b in below]
    for i, j, r in pairs:
        got = endpoint_relation(at[2 * i], at[2 * i + 1], at[2 * j], at[2 * j + 1])
        want = RELATIONS[r]
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
    with (vi, vj) narrowed to the complement of R is inconsistent; a
    variable's own entry is refuted the same way.  n2's variables must all
    occur in n1.
    """
    missing = set(n2.variables) - set(n1.variables)
    if missing:
        raise VariableSetError(f"variables not in the entailing network: {sorted(missing)}")
    return not any(
        is_consistent(n1.set_constraint(vi, vj, UNIVERSAL - rels))
        for vi, vj, rels in n2.nontrivial_pairs()
    )
