"""Workflows paired with a qualitative constraint network.

An extended workflow ties interval variables of a network to subworkflow
nodes through an injective reference map.  Reference keys are node labels,
or atom names when those are unambiguous, so the map survives structural
rewrites such as normalization.  The module validates the pairing (notably
the rule that no constraint may cross a loop boundary), computes the
sequence-free form, and decides strong and bounded satisfiability plus a
sufficient subsumption condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

from .allen import Relation, RelationSet
from .qcn import Qcn, _closure, entails, is_consistent
from .semantics import Hull, Model, find_model
from .workflow import (
    Atomic,
    Conj,
    Loop,
    Path,
    Seq,
    SubsumptionVerdict,
    Workflow,
    children,
    iter_nodes,
    node_at,
    normalize,
    relabel,
    subsumes_syntactic,
    with_children,
)

SEQUENCE_RELATIONS = RelationSet.of(Relation.BEFORE, Relation.MEETS)
# an executed atom lies within the hull of any atom set holding it
INSIDE_HULL = RelationSet.of(Relation.STARTS, Relation.DURING, Relation.FINISHES, Relation.EQUALS)


class KeyResolutionError(ValueError):
    """A reference key matches no node, or more than one."""


class InvalidExtendedWorkflowError(ValueError):
    """Operation requires a valid extended workflow."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(v.message for v in report.violations))
        self.report = report


class LabelMapError(ValueError):
    """Two extended workflows disagree on a shared reference key."""


@dataclass(frozen=True)
class ExtendedWorkflow:
    """A workflow, a constraint network, and the reference map between them.

    ``r_map`` sends reference keys (labels, or unambiguous atom names) to
    network variables; it must be injective and cover every constrained
    variable.  The key census and the validation report are computed on
    first read and kept with the value.
    """

    workflow: Workflow
    network: Qcn
    r_map: Mapping[str, str] = field(default_factory=dict)

    @cached_property
    def census(self) -> dict[str, list[Path]]:
        """The tree's :func:`key_census`, taken on first read; do not mutate."""
        return key_census(self.workflow)

    @cached_property
    def report(self) -> ValidationReport:
        """What :func:`validate` finds, computed on first read."""
        return validate(self)


def embed(w: Workflow) -> ExtendedWorkflow:
    """A plain workflow seen as an extended one with the empty network."""
    return ExtendedWorkflow(w, Qcn.universal(()), {})


def key_census(w: Workflow) -> dict[str, list[Path]]:
    """Every reference key of the tree -> the paths of the nodes it matches.

    A labeled node answers to its label and an unlabeled atom to its name;
    paths are in preorder.
    """
    census: dict[str, list[Path]] = {}
    for path, node in iter_nodes(w):
        key = node.name if node.label is None and isinstance(node, Atomic) else node.label
        if key is not None:
            census.setdefault(key, []).append(path)
    return census


def lookup_key(census: Mapping[str, list[Path]], key: str) -> Path:
    """The unique node a reference key denotes in a :func:`key_census`."""
    matches = census.get(key, ())
    if not matches:
        raise KeyResolutionError(f"reference {key!r} matches no node")
    if len(matches) > 1:
        raise KeyResolutionError(f"reference {key!r} is ambiguous ({len(matches)} nodes)")
    return matches[0]


def resolve_key(w: Workflow, key: str) -> Path:
    """The unique node a reference key denotes: a label or an atom name."""
    return lookup_key(key_census(w), key)


def variable_paths(ew: ExtendedWorkflow) -> dict[str, Path]:
    """Network variable -> node path, resolved against the current tree."""
    return {var: lookup_key(ew.census, key) for key, var in ew.r_map.items()}


def _loop_context(w: Workflow, path: Path) -> tuple[Path, ...]:
    """Paths of the loops whose bodies contain the node at ``path``."""
    out = []
    node = w
    for depth, step in enumerate(path):
        if isinstance(node, Loop):
            out.append(path[:depth])
        node = children(node)[step]
    return tuple(out)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    constraint: Optional[tuple[str, str]] = None
    paths: tuple[Path, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(ew: ExtendedWorkflow) -> ValidationReport:
    """Check injectivity, variable coverage and the loop-boundary rule.

    Constraints may relate a loop node to anything alongside it, but never
    a node inside a loop body to one outside that body.
    """
    census = ew.census
    # a key with several paths may be a label used twice (unlabeled atoms of
    # its name are filed under it too); lexicographic path order is preorder
    repeats = []
    for key, paths in census.items():
        if len(paths) > 1:
            labeled = [p for p in paths if node_at(ew.workflow, p).label == key]
            repeats += [(later, labeled[0], key) for later in labeled[1:]]
    violations = [
        Violation("duplicate-label", f"label {key!r} is used more than once", paths=(first, later))
        for later, first, key in sorted(repeats)
    ]

    key_paths: dict[str, Path] = {}
    for key in ew.r_map:
        try:
            key_paths[key] = lookup_key(census, key)
        except KeyResolutionError as exc:
            violations.append(Violation("unresolved-key", str(exc)))

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
    scopes = {var: _loop_context(ew.workflow, path) for var, path in var_paths.items()}
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
        if scopes[vi] != scopes[vj]:
            violations.append(
                Violation(
                    "loop-boundary",
                    f"constraint between {vi!r} and {vj!r} crosses a loop boundary",
                    constraint=(vi, vj),
                    paths=(var_paths[vi], var_paths[vj]),
                )
            )
    return ValidationReport(tuple(violations))


def _require_valid(ew: ExtendedWorkflow) -> None:
    if not ew.report.ok:
        raise InvalidExtendedWorkflowError(ew.report)


# ---------------------------------------------------------------------------
# Sequence-free form


def _uniquify(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    for i in itertools.count(2):
        candidate = f"{base}{i}"
        if candidate not in taken:
            return candidate
    raise AssertionError


def sequence_free(ew: ExtendedWorkflow) -> ExtendedWorkflow:
    """The equivalent extended workflow without any sequence node.

    Every sequence becomes a conjunction plus one {before, meets}
    constraint between the end anchor of each part and the start anchor
    of the next.  Sequences delegate their anchors to their
    parts, so chains produce constraints between the chained elements;
    conjunctions, disjunctions and loops anchor at their own node and get
    a variable (and a minted label if they have none).  The result is
    normalized, which flattens the freshly created conjunctions.
    """
    _require_valid(ew)
    # the transform keeps every path and every key, so the census still holds
    census = ew.census
    pairs: list[tuple[Path, Path]] = []
    names: set[str] = set()

    def go(node: Workflow, path: Path) -> tuple[Workflow, Path, Path]:
        match node:
            case Atomic(name):
                names.add(name)
                return node, path, path
            case Seq(parts, label):
                new_part, start, end = go(parts[0], path + (0,))
                new_parts = [new_part]
                for step, part in enumerate(parts[1:], 1):
                    new_part, part_start, part_end = go(part, path + (step,))
                    pairs.append((end, part_start))
                    new_parts.append(new_part)
                    end = part_end
                return Conj(tuple(new_parts), label), start, end
        kids = [go(child, path + (step,))[0] for step, child in enumerate(children(node))]
        return with_children(node, kids), path, path

    tree, _, _ = go(ew.workflow, ())

    # the census keys are every label and the names of unlabeled atoms
    taken = set(ew.r_map) | set(ew.r_map.values()) | set(census) | names
    fresh = (f"n{i}" for i in itertools.count(1) if f"n{i}" not in taken)
    minted: dict[Path, str] = {}
    # once labeled, an atom no longer answers to its name (the census is left as it is)
    minted_atoms: dict[str, int] = {}
    r_map = dict(ew.r_map)
    in_use = set(r_map.values()) | set(ew.network.variables)

    def answering(key: str) -> int:
        return len(census.get(key, ())) - minted_atoms.get(key, 0)

    def var_for(path: Path) -> str:
        node = node_at(tree, path)
        key = minted.get(path, node.label)
        if key is None and isinstance(node, Atomic) and answering(node.name) == 1:
            key = node.name
        elif key is None:
            if isinstance(node, Atomic):
                minted_atoms[node.name] = minted_atoms.get(node.name, 0) + 1
            key = minted[path] = next(fresh)
        if key not in r_map:
            r_map[key] = _uniquify(key, in_use)
            in_use.add(r_map[key])
        return r_map[key]

    var_pairs = [(var_for(a), var_for(b)) for a, b in pairs]
    # a label that now keys a variable must not also match atoms of its name
    for key in r_map:
        if answering(key) > 1:
            unlabeled = [p for p in census[key] if node_at(tree, p).label is None]
            minted.update((p, next(fresh)) for p in unlabeled if p not in minted)
    network = ew.network.with_variable(*(var for pair in var_pairs for var in pair))
    network = network.set_constraints((a, b, SEQUENCE_RELATIONS) for a, b in var_pairs)
    return ExtendedWorkflow(normalize(relabel(tree, minted)), network, r_map)


# ---------------------------------------------------------------------------
# Satisfiability


def check_strong_satisfiable(ew: ExtendedWorkflow) -> bool:
    """Is the network of the sequence-free form consistent?

    Strong satisfiability implies (bounded) satisfiability but not the
    other way round; deciding it is a network consistency test, hence
    NP-complete in the number of constrained variables.
    """
    return is_consistent(sequence_free(ew).network)


def refutes_plan(atom_count: int, le_pairs: list[tuple[int, int]], hulls: list[Hull]) -> bool:
    """Does path consistency refute the interval network that the search
    plan of one execution shape (see ``semantics.find_model``) implies?

    Each atom is a variable, {b, m} to the atom of each end-before-start
    pair.  Each hull obligation relates its two sides: a one-atom side is
    that atom, a larger side is a hull variable holding each member atom
    in {s, d, f, eq}.  These are necessary conditions only, so True proves
    that the shape has no model and False proves nothing.
    """
    names = [f"a{i}" for i in range(atom_count)]
    sides = {1 << 2 * i: name for i, name in enumerate(names)}
    for starts_i, starts_j, _ in hulls:
        for starts in starts_i, starts_j:
            sides.setdefault(starts, f"h{starts}")
    constraints = [(names[x >> 1], names[y >> 1], SEQUENCE_RELATIONS) for x, y in le_pairs]
    for starts, hull_name in list(sides.items())[atom_count:]:
        for i in range(atom_count):
            if starts >> 2 * i & 1:
                constraints.append((names[i], hull_name, INSIDE_HULL))
    for starts_i, starts_j, allowed in hulls:
        constraints.append((sides[starts_i], sides[starts_j], RelationSet(allowed)))
    network = Qcn.universal(tuple(sides.values())).set_constraints(constraints)
    return not _closure(network)[1]


def find_witness(ew: ExtendedWorkflow, *, unroll_bound: int = 3) -> Optional[Model]:
    """A bounded model of the extended workflow, if one exists."""
    _require_valid(ew)
    return find_model(
        ew.workflow, ew.network, variable_paths(ew), unroll_bound=unroll_bound, refute=refutes_plan
    )


def check_satisfiable(ew: ExtendedWorkflow, *, unroll_bound: int = 3) -> bool:
    """Bounded satisfiability via the brute-force model search.

    Sound and complete only up to the loop bound and the atom budget;
    exceeding the budget raises instead of answering.
    """
    return find_witness(ew, unroll_bound=unroll_bound) is not None


# ---------------------------------------------------------------------------
# Subsumption


def subsumes_sufficient(ew1: ExtendedWorkflow, ew2: ExtendedWorkflow) -> SubsumptionVerdict:
    """Sufficient subsumption test: workflow rewrite plus network entailment.

    HOLDS when the first workflow is syntactically subsumed by the second
    and the first network entails the second; UNKNOWN otherwise.  Shared
    reference keys must agree on their variable.
    """
    for key in set(ew1.r_map) & set(ew2.r_map):
        if ew1.r_map[key] != ew2.r_map[key]:
            raise LabelMapError(
                f"key {key!r} maps to {ew1.r_map[key]!r} and {ew2.r_map[key]!r}"
            )
    if subsumes_syntactic(ew1.workflow, ew2.workflow) is not SubsumptionVerdict.HOLDS:
        return SubsumptionVerdict.UNKNOWN
    if entails(ew1.network.with_variable(*ew2.network.variables), ew2.network):
        return SubsumptionVerdict.HOLDS
    return SubsumptionVerdict.UNKNOWN
