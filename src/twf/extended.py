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
from typing import Mapping, Optional

from .allen import Relation, RelationSet
from .qcn import Qcn, entails, path_consistency
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
    variable.
    """

    workflow: Workflow
    network: Qcn
    r_map: Mapping[str, str] = field(default_factory=dict)


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
    census = key_census(ew.workflow)
    return {var: lookup_key(census, key) for key, var in ew.r_map.items()}


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
    return _validate(ew, key_census(ew.workflow))


def _validate(ew: ExtendedWorkflow, census: Mapping[str, list[Path]]) -> ValidationReport:
    """:func:`validate` with the tree's :func:`key_census` already built."""
    violations: list[Violation] = []
    seen_labels: dict[str, Path] = {}
    for path, node in iter_nodes(ew.workflow):
        if node.label is not None and seen_labels.setdefault(node.label, path) != path:
            violations.append(
                Violation(
                    "duplicate-label",
                    f"label {node.label!r} is used more than once",
                    paths=(seen_labels[node.label], path),
                )
            )

    key_paths: dict[str, Path] = {}
    for key in ew.r_map:
        try:
            key_paths[key] = lookup_key(census, key)
        except KeyResolutionError as exc:
            violations.append(Violation("unresolved-key", str(exc)))

    by_path: dict[Path, str] = {}
    for key, path in key_paths.items():
        if path in by_path:
            violations.append(
                Violation(
                    "non-injective",
                    f"keys {by_path[path]!r} and {key!r} denote the same node",
                    paths=(path,),
                )
            )
        by_path[path] = key
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
    constrained = [(vi, vj) for vi, vj, _ in ew.network.nontrivial_pairs()]
    constrained += [(name, name) for name, _ in ew.network.degenerate_diagonal()]
    for vi, vj in constrained:
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
        pi, pj = var_paths[vi], var_paths[vj]
        if _loop_context(ew.workflow, pi) != _loop_context(ew.workflow, pj):
            violations.append(
                Violation(
                    "loop-boundary",
                    f"constraint between {vi!r} and {vj!r} crosses a loop boundary",
                    constraint=(vi, vj),
                    paths=(pi, pj),
                )
            )
    return ValidationReport(tuple(violations))


def _require_valid(ew: ExtendedWorkflow) -> None:
    report = validate(ew)
    if not report.ok:
        raise InvalidExtendedWorkflowError(report)


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
    pairs: list[tuple[Path, Path]] = []

    def go(node: Workflow, path: Path) -> tuple[Workflow, Path, Path]:
        match node:
            case Atomic():
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

    census = key_census(tree)
    # the census keys are every label and the names of unlabeled atoms
    taken = set(ew.r_map) | set(ew.r_map.values()) | set(census)
    taken |= {node.name for _, node in iter_nodes(tree) if isinstance(node, Atomic)}
    fresh = (f"n{i}" for i in itertools.count(1) if f"n{i}" not in taken)
    minted: dict[Path, str] = {}
    r_map = dict(ew.r_map)
    in_use = set(r_map.values()) | set(ew.network.variables)

    def var_for(path: Path) -> str:
        node = node_at(tree, path)
        key = minted.get(path, node.label)
        if key is None and isinstance(node, Atomic) and census[node.name] == [path]:
            key = node.name
        elif key is None:
            if isinstance(node, Atomic):
                census[node.name].remove(path)  # once labeled, it no longer answers to its name
            key = minted[path] = next(fresh)
        if key not in r_map:
            r_map[key] = _uniquify(key, in_use)
            in_use.add(r_map[key])
        return r_map[key]

    var_pairs = [(var_for(a), var_for(b)) for a, b in pairs]
    network = ew.network.with_variable(*(var for pair in var_pairs for var in pair))
    for var_a, var_b in var_pairs:
        network = network.set_constraint(var_a, var_b, SEQUENCE_RELATIONS)
    return ExtendedWorkflow(normalize(relabel(tree, minted)), network, r_map)


# ---------------------------------------------------------------------------
# Satisfiability


def check_strong_satisfiable(ew: ExtendedWorkflow) -> bool:
    """Is the network of the sequence-free form consistent?

    Strong satisfiability implies (bounded) satisfiability but not the
    other way round; deciding it is a network consistency test, hence
    NP-complete in the number of constrained variables.
    """
    from .qcn import is_consistent

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
    for obligation in hulls:
        for starts in obligation[0], obligation[2]:
            sides.setdefault(starts, f"h{starts}")
    network = Qcn.universal(tuple(sides.values()))
    for x, y in le_pairs:
        network = network.set_constraint(names[x >> 1], names[y >> 1], SEQUENCE_RELATIONS)
    for starts, hull_name in list(sides.items())[atom_count:]:
        for i in range(atom_count):
            if starts >> 2 * i & 1:
                network = network.set_constraint(names[i], hull_name, INSIDE_HULL)
    for starts_i, _, starts_j, _, allowed in hulls:
        network = network.set_constraint(sides[starts_i], sides[starts_j], RelationSet(allowed))
    return not path_consistency(network)[1]


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
