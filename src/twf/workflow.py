"""Workflow syntax trees and the rewrite layer.

A workflow is a finite tree built from atomic activities with four control
constructors: sequence, conjunction (parallel split/join), disjunction
(exclusive choice) and loop.  Occurrence identifiers keep repeated activity
names apart; node paths address subtrees for substitution and constraint
attachment.  The module also provides canonical normal forms (flattening,
sorting, idempotence) and a sound-but-incomplete syntactic subsumption
check implemented as a bounded rewrite search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence, Union


@dataclass(frozen=True)
class Atomic:
    name: str
    occ: int = 0
    label: Optional[str] = None


@dataclass(frozen=True)
class Nary:
    """A sequence, conjunction or disjunction of two or more parts."""

    parts: tuple["Workflow", ...]
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two parts")


class Seq(Nary):
    """The parts run one after the other."""


class Conj(Nary):
    """The parts all run, in parallel (split/join)."""


class Disj(Nary):
    """Exactly one part runs (exclusive choice)."""


@dataclass(frozen=True)
class Loop:
    body: "Workflow"
    label: Optional[str] = None


Workflow = Union[Atomic, Seq, Conj, Disj, Loop]

# A path addresses a node: each step indexes the children of a node, that
# is the parts of a sequence, conjunction or disjunction, or the body (0)
# of a loop.
Path = tuple[int, ...]


class PathError(ValueError):
    """A node path does not address an existing node."""


_occ_counter = itertools.count(1)


def fresh_occ() -> int:
    return next(_occ_counter)


# ---------------------------------------------------------------------------
# Construction helpers


def atom(name: str, label: Optional[str] = None) -> Atomic:
    return Atomic(name, fresh_occ(), label)


def seq(*parts: Workflow) -> Workflow:
    """Sequence of the parts; a single part is returned as it is."""
    if not parts:
        raise ValueError("seq needs at least one part")
    return parts[0] if len(parts) == 1 else Seq(parts)


def conj(*parts: Workflow) -> Workflow:
    """Conjunction of the parts; a single part is returned as it is."""
    if not parts:
        raise ValueError("conj needs at least one part")
    return parts[0] if len(parts) == 1 else Conj(parts)


def disj(*parts: Workflow) -> Workflow:
    """Disjunction of the parts; a single part is returned as it is."""
    if not parts:
        raise ValueError("disj needs at least one part")
    return parts[0] if len(parts) == 1 else Disj(parts)


def loop(body: Workflow, label: Optional[str] = None) -> Loop:
    return Loop(body, label)


# ---------------------------------------------------------------------------
# Traversal


def children(node: Workflow) -> tuple[Workflow, ...]:
    """The direct subtrees of a node; a path step indexes into them."""
    match node:
        case Atomic():
            return ()
        case Nary(parts):
            return parts
        case Loop(body):
            return (body,)
    raise TypeError(f"not a workflow node: {node!r}")


def with_children(node: Workflow, kids: Sequence[Workflow]) -> Workflow:
    """The node with new direct subtrees; its kind and label are kept."""
    if isinstance(node, Loop):
        return Loop(kids[0], node.label)
    return type(node)(tuple(kids), node.label)


def iter_nodes(w: Workflow) -> Iterator[tuple[Path, Workflow]]:
    """Preorder traversal yielding (path, node) pairs."""
    stack = [((), w)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children(node)
        for step in range(len(kids) - 1, -1, -1):
            stack.append((path + (step,), kids[step]))


def node_at(w: Workflow, path: Path) -> Workflow:
    node = w
    for step in path:
        kids = children(node)
        if not (isinstance(step, int) and 0 <= step < len(kids)):
            raise PathError(f"no node at path {path!r}")
        node = kids[step]
    return node


def atoms(w: Workflow) -> list[tuple[Path, Atomic]]:
    return [(p, n) for p, n in iter_nodes(w) if isinstance(n, Atomic)]


# ---------------------------------------------------------------------------
# Occurrence renaming, subworkflows, unrolling


def _renumber(node: Workflow, counter: Iterator[int]) -> Workflow:
    if isinstance(node, Atomic):
        return Atomic(node.name, next(counter), node.label)
    return with_children(node, [_renumber(child, counter) for child in children(node)])


def rename_occurrences(w: Workflow) -> Workflow:
    """Structurally identical tree with fresh occurrence ids on every atom."""
    return _renumber(w, _occ_counter)


def subworkflows(w: Workflow) -> frozenset[Workflow]:
    """The set of subworkflows of w, including w itself."""
    return proper_subworkflows(w) | {w}


def proper_subworkflows(w: Workflow) -> frozenset[Workflow]:
    """The set of subworkflows strictly below w, computed structurally."""
    return frozenset().union(*map(subworkflows, children(w)))


def unroll(w: Workflow, n: int) -> Workflow:
    """Sequence of n freshly renamed copies of w."""
    if n < 1:
        raise ValueError(f"unroll count must be >= 1, got {n}")
    return seq(*(rename_occurrences(w) for _ in range(n)))


# ---------------------------------------------------------------------------
# Resolutions: picking disjunction branches and loop iteration counts


@dataclass(frozen=True)
class Resolution:
    """One way of executing a workflow's choice points.

    ``choices`` assigns a branch index to every executed disjunction node
    (by path); ``unrolls`` assigns an iteration count n >= 1 to every
    executed loop node; a point inside an unchosen branch has no entry.
    Choice points inside loop bodies are resolved alike in every iteration.
    """

    choices: Mapping[Path, int]
    unrolls: Mapping[Path, int]

    def executes(self, path: Path) -> bool:
        """Does each choice made on the way to ``path`` pick the branch leading there?"""
        return all(self.choices.get(path[:d], step) == step for d, step in enumerate(path))


@dataclass(frozen=True)
class TracedAtom:
    """An atom of a resolved workflow with its origin in the source tree.

    ``iterations`` records, for each enclosing loop of the source atom,
    which unrolled iteration this copy belongs to.
    """

    occ: int
    name: str
    source: Path
    iterations: tuple[tuple[Path, int], ...]


def resolve_traced(w: Workflow, resolution: Resolution) -> tuple[Workflow, tuple[TracedAtom, ...]]:
    """Resolve every choice point of w, tracing atoms back to the source.

    The result is loop-free and disjunction-free; every produced atom
    carries a fresh occurrence id.
    """
    traced: list[TracedAtom] = []

    def go(node: Workflow, path: Path, iters: tuple[tuple[Path, int], ...]) -> Workflow:
        match node:
            case Atomic(name, _, label):
                occ = fresh_occ()
                traced.append(TracedAtom(occ, name, path, iters))
                return Atomic(name, occ, label)
            case Disj(parts):
                step = resolution.choices[path]
                return go(parts[step], path + (step,), iters)
            case Loop(body):
                count = resolution.unrolls[path]
                return seq(*(go(body, path + (0,), iters + ((path, i),)) for i in range(count)))
            case Nary(parts, label):
                return type(node)(
                    tuple(go(part, path + (i,), iters) for i, part in enumerate(parts)), label
                )
        raise TypeError(f"not a workflow node: {node!r}")

    return go(w, (), ()), tuple(traced)


def _atom_count(node: Workflow, r: Resolution, path: Path = ()) -> int:
    """How many atoms resolve_traced gives for the subtree at ``path``."""
    match node:
        case Atomic():
            return 1
        case Disj(parts):
            step = r.choices[path]
            return _atom_count(parts[step], r, path + (step,))
        case Loop(body):
            return r.unrolls[path] * _atom_count(body, r, path + (0,))
    return sum(_atom_count(kid, r, path + (i,)) for i, kid in enumerate(children(node)))


def resolutions(w: Workflow, bound: int) -> tuple[tuple[Resolution, int], ...]:
    """One resolution per execution shape, with its atom count.

    Shapes come in the order of their first combination in the product
    over every disjunction, then every loop (counts 1..bound), each in
    preorder.  Whether a point executes depends only on disjunctions
    before it in that order, so expanding point by point keeps the order.
    """
    if bound < 1:
        raise ValueError(f"loop bound must be >= 1, got {bound}")
    nodes = list(iter_nodes(w))
    points = [(p, n, range(len(n.parts))) for p, n in nodes if isinstance(n, Disj)]
    points += [(p, n, range(1, bound + 1)) for p, n in nodes if isinstance(n, Loop)]
    partial = [Resolution({}, {})]
    for path, node, options in points:
        grown = []
        for r in partial:
            if not r.executes(path):
                grown.append(r)
            elif isinstance(node, Disj):
                grown += [Resolution({**r.choices, path: k}, r.unrolls) for k in options]
            else:
                grown += [Resolution(r.choices, {**r.unrolls, path: k}) for k in options]
        partial = grown
    return tuple((r, _atom_count(w, r)) for r in partial)


def shape_census(w: Workflow, bound: int) -> tuple[int, int]:
    """How many shapes :func:`resolutions` gives for w, and the atom count
    of the smallest, from one pass over the tree without building a shape.

    A choice adds its branches' counts and takes their smallest; a
    sequence or group multiplies its parts' counts and adds their
    smallest; a loop runs each body shape 1..bound times, the smallest once.
    """
    if bound < 1:
        raise ValueError(f"loop bound must be >= 1, got {bound}")

    def go(node: Workflow) -> tuple[int, int]:
        match node:
            case Atomic():
                return 1, 1
            case Loop(body):
                count, smallest = go(body)
                return bound * count, smallest
        counts, sizes = zip(*map(go, children(node)))
        if isinstance(node, Disj):
            return sum(counts), min(sizes)
        return math.prod(counts), sum(sizes)

    return go(w)


# ---------------------------------------------------------------------------
# Normal form

_TAGS = {Seq: "s", Conj: "c", Disj: "d"}


def fingerprint(node: Workflow) -> tuple[str, ...]:
    """Structural identity ignoring occurrence ids; doubles as sort key.

    The key is a flat tuple of tokens, so comparing two keys never
    recurses however deep the trees are.  An n-ary node spells out its
    binary expansion in preorder (a sequence nests to the left, a group to
    the right); that order decides where parts land in every normal form.
    """
    match node:
        case Atomic(name, _, label):
            return ("a", name, label or "")
        case Loop(body, label):
            return ("l", *fingerprint(body), label or "")
        case Nary(parts, label):
            tag = _TAGS[type(node)]
            keys = [fingerprint(part) for part in parts]
            out: list[str] = []
            if isinstance(node, Seq):
                # like ("s", ("s", k0, k1, ""), k2, label)
                out += [tag] * (len(keys) - 1)
                out += keys[0]
                for key in keys[1:-1]:
                    out += (*key, "")
                out += keys[-1]
            else:
                # like ("c", k0, ("c", k1, k2, ""), label)
                for key in keys[:-1]:
                    out += (tag, *key)
                out += keys[-1]
                out += [""] * (len(keys) - 2)
            out.append(label or "")
            return tuple(out)
    raise TypeError(f"not a workflow node: {node!r}")


def _norm(node: Workflow) -> Workflow:
    match node:
        case Atomic():
            return node
        case Nary(parts, label):
            kind = type(node)
            flat: list[Workflow] = []
            for part in map(_norm, parts):
                if type(part) is kind and part.label is None:
                    flat += part.parts
                else:
                    flat.append(part)
            if kind is Conj:
                flat.sort(key=fingerprint)
            elif kind is Disj:
                unique: dict[tuple[str, ...], Workflow] = {}
                for part in flat:
                    unique.setdefault(fingerprint(part), part)
                flat = [unique[key] for key in sorted(unique)]
                if len(flat) == 1:
                    single = flat[0]
                    if label is None:
                        return single
                    if single.label is None:
                        return replace(single, label=label)
                    flat = [single, single]
            return kind(tuple(flat), label)
        case Loop(body, label):
            inner = _norm(body)
            while isinstance(inner, Loop) and (inner.label is None or label is None):
                if inner.label is not None:
                    label = inner.label
                inner = inner.body
                inner = _norm(inner)
            return Loop(inner, label)
    raise TypeError(f"not a workflow node: {node!r}")


def normalize(w: Workflow) -> Workflow:
    """Canonical form under the workflow equivalences.

    Unlabeled sequences inside a sequence splice in their parts, nested
    conjunctions flatten to a sorted multiset, nested disjunctions to a
    sorted duplicate-free set, and nested loops collapse.  Occurrence ids
    are renumbered in traversal order so that equal normal forms compare
    equal structurally.  Labeled nodes are kept as units (they are
    referenced by constraints), so flattening never erases a labeled node.
    """
    return _renumber(_norm(w), itertools.count(1))


# ---------------------------------------------------------------------------
# Substitution


def _replace_at(w: Workflow, path: Path, new: Workflow) -> Workflow:
    if not path:
        return new
    kids = list(children(w))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return with_children(w, kids)


def substitute(w: Workflow, at: Path, replacement: Workflow) -> Workflow:
    """Replace the node addressed by ``at``; the replacement gets fresh occurrence ids."""
    node_at(w, at)
    return _replace_at(w, at, rename_occurrences(replacement))


def relabel(w: Workflow, labels: Mapping[Path, Optional[str]]) -> Workflow:
    """Give each node addressed in ``labels`` its new label, in one pass
    that rebuilds only the nodes on the way to them (occurrences kept)."""
    above = {path[:depth] for path in labels for depth in range(len(path))}

    def go(node: Workflow, path: Path) -> Workflow:
        if path in above:
            node = with_children(node, [go(kid, path + (k,)) for k, kid in enumerate(children(node))])
        return replace(node, label=labels[path]) if path in labels else node

    return go(w, ())


# ---------------------------------------------------------------------------
# Syntactic subsumption


class SubsumptionVerdict(Enum):
    """Tri-state verdict of the sound-but-incomplete subsumption check.

    HOLDS is only produced by sound rewrite steps; the checker never
    claims non-subsumption, so the other value is UNKNOWN.
    """

    HOLDS = "holds"
    UNKNOWN = "unknown"


def _subset_masks(n: int) -> Iterator[int]:
    """Bit masks of the proper subsets (two parts or more) a group of n
    parts may wrap in a loop.

    A group of up to six parts offers every such subset.  A wider one
    offers the subsets of its last six parts and its suffixes: n + 50
    candidates instead of 2**n.
    """
    if n <= 6:
        masks = range(1, 1 << n)
    else:
        masks = [m << (n - 6) for m in range(1, 64)]
        masks += [((1 << size) - 1) << (n - size) for size in range(7, n)]
    return (m for m in masks if 2 <= m.bit_count() < n)


def _generalizations(w: Workflow) -> Iterator[Workflow]:
    """One-step rewrites of w that only generalize (or preserve) its executions.

    w is normalized, so the rules range over contiguous segments of a
    sequence's parts and over subsets of a conjunction's or disjunction's
    parts, not just over whole nodes:

      * a sequence grouping may forget its ordering and become a conjunction;
      * a loop followed by one more copy of its body collapses into the loop;
      * any grouping may be wrapped in a loop.
    """

    def rewrites_at(node: Workflow) -> Iterator[Workflow]:
        yield Loop(node)
        match node:
            case Seq(parts, label):
                n = len(parts)

                def splice(i: int, j: int, replacement: Workflow) -> Workflow:
                    rest = parts[:i] + (replacement,) + parts[j + 1 :]
                    if len(rest) > 1:
                        return Seq(rest, label)
                    return replacement if label is None else replace(replacement, label=label)

                for i in range(n):
                    head = parts[i]
                    body_key = fingerprint(_norm(head.body)) if isinstance(head, Loop) else None
                    for j in range(i + 1, n):
                        # one sequence grouping over parts[i..j] turns into
                        # a conjunction, split anywhere inside
                        for k in range(i, j):
                            grouped = Conj((seq(*parts[i : k + 1]), seq(*parts[k + 1 : j + 1])))
                            yield splice(i, j, grouped)
                        # a loop absorbs a following copy of its body
                        if body_key is not None and body_key == fingerprint(
                            _norm(seq(*parts[i + 1 : j + 1]))
                        ):
                            yield splice(i, j, head)
                        # any inner grouping may be wrapped in a loop
                        if (i, j) != (0, n - 1):
                            yield splice(i, j, Loop(seq(*parts[i : j + 1])))
            case Conj(parts, label) | Disj(parts, label):
                kind = type(node)
                for mask in _subset_masks(len(parts)):
                    inside = tuple(p for x, p in enumerate(parts) if mask >> x & 1)
                    outside = tuple(p for x, p in enumerate(parts) if not mask >> x & 1)
                    yield kind(outside + (Loop(kind(inside)),), label)

    for path, node in iter_nodes(w):
        for rewritten in rewrites_at(node):
            yield _replace_at(w, path, rewritten)


# Rewrite steps and distinct states the subsumption search may visit.
_REWRITE_STEPS = 6
_MAX_STATES = 4000


def _positions(w: Workflow) -> dict[str, dict[int, tuple[int, int]]]:
    """Each atom name of w -> {sequence: (first, last)}: the first and last
    part holding the name, of every sequence node that holds it."""
    spans: dict[str, dict[int, tuple[int, int]]] = {}
    stack: list = [(w, ())]  # a node and its enclosing (sequence, part) steps
    while stack:
        node, steps = stack.pop()
        if isinstance(node, Atomic):
            held = spans.setdefault(node.name, {})
            for s, part in steps:
                first, last = held.get(s, (part, part))
                held[s] = (min(first, part), max(last, part))
        elif isinstance(node, Seq):
            # keyed by identity: a sequence object met twice has the same parts
            stack += [(kid, steps + ((id(node), part),)) for part, kid in enumerate(node.parts)]
        else:
            stack += [(kid, steps) for kid in children(node)]
    return spans


def _ordered_pairs(spans: dict[str, dict[int, tuple[int, int]]]) -> Iterator[tuple[str, str]]:
    """Lazily, the name pairs (x, y) that a sequence orders: x's first part
    there comes before y's last part."""
    by_sequence: dict[int, list[tuple[int, int, str]]] = {}
    for name, held in spans.items():
        for s, (first, last) in held.items():
            by_sequence.setdefault(s, []).append((first, last, name))
    for members in by_sequence.values():
        members.sort()
        for _, last, y in members:
            for first, _, x in members:
                if first >= last:
                    break
                yield x, y


def _within_order_facts(start: Workflow, goal: Workflow) -> bool:
    """Are the goal's atom names and ordered pairs all the start's?  Stops
    at the first of the goal's pairs, made lazily, that start lacks."""
    have, want = _positions(start), _positions(goal)
    if not want.keys() <= have.keys():
        return False
    for x, y in _ordered_pairs(want):
        lasts = have[y]
        for s, (first, _) in have[x].items():
            if s in lasts and first < lasts[s][1]:
                break
        else:
            return False
    return True


def subsumes_syntactic(w1: Workflow, w2: Workflow) -> SubsumptionVerdict:
    """Is every execution of w1 an execution of w2, by rewrite search?

    Breadth-first search from the normal form of w1 towards that of w2
    using normalization equivalences plus the generalizing rewrites;
    congruence comes from applying rules at any position.  States are
    compared by fingerprint, so occurrence ids are never renumbered.
    Exhausting the step budget or the state cap yields UNKNOWN, never a
    negative claim.

    No rewrite and no normalization step adds an atom name or an ordered
    name pair (see ``_ordered_pairs``): grouping a sequence into a
    conjunction drops the pairs across the cut, absorbing into a loop
    deletes parts, wrapping in a loop keeps every sequence, and flattening,
    sorting, deduplicating and collapsing add nothing.  So every state the
    search reaches has a subset of the start's names and pairs, and a goal
    outside them is answered UNKNOWN at once; that is exactly the answer
    the exhausted search would give.
    """
    target = _norm(w2)
    goal = fingerprint(target)
    start = _norm(w1)
    seen = {fingerprint(start)}
    frontier = [start]
    if fingerprint(start) == goal:
        return SubsumptionVerdict.HOLDS
    if not _within_order_facts(start, target):
        return SubsumptionVerdict.UNKNOWN
    for _ in range(_REWRITE_STEPS):
        next_frontier: list[Workflow] = []
        for state in frontier:
            for candidate in _generalizations(state):
                normal = _norm(candidate)
                key = fingerprint(normal)
                if key == goal:
                    return SubsumptionVerdict.HOLDS
                if key not in seen and len(seen) < _MAX_STATES:
                    seen.add(key)
                    next_frontier.append(normal)
        if not next_frontier:
            break
        frontier = next_frontier
    return SubsumptionVerdict.UNKNOWN
