"""Seeded `.twf` document families for the benchmark workloads.

Everything here is a pure function of (workload, seed): the same seed yields
byte-identical documents, requests and expected answers.  Sizes are
stratified: a family of k documents over a size range [lo, hi] draws one size
from each of k equal strata, so every seed sees the same spread of sizes and
only the content (names, structure, constraints) changes between seeds.

Each document carries the facts the independent checks in `verify.py` need
(atom-level constraints, sequence order, planted answers), taken from the
generator itself, never from twf.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from allen_ref import RELATIONS, relation

WORKLOADS = ("solve", "bounded", "transform")

# Steps of the long chains `transform` sends, and the largest chain the
# depth probe tries.  The program as first benchmarked raises RecursionError
# in `normalize` and `dot` from 993 steps on; the probe reports that limit,
# so the timed loop keeps below it and no request fails.
LONG_CHAIN = (300, 900)
DEPTH_MAX = 1500

# Planted and expected answers a request can carry.
YES, NO, BUDGET, HOLDS, UNKNOWN, ORACLE_OK, ANY_VERDICT, TEXT = (
    "yes", "no", "budget", "holds", "unknown", "oracle-ok", "any-verdict", "text",
)


@dataclass(frozen=True)
class Doc:
    """One generated document and the facts its answers are checked against.

    ``constraints`` are atom-level (x, allowed relations, y) triples;
    ``parts`` is the top-level sequence as lists of atom names per part
    (bounded families), ``order`` the chain order (chain families), and
    ``parts_kind`` one letter per part: A atom, C and-pair, D or-pair, L loop.
    """

    name: str
    family: str
    size: int
    text: str
    constraints: tuple[tuple[str, frozenset, str], ...] = ()
    order: tuple[str, ...] = ()
    parts: tuple[tuple[str, ...], ...] = ()
    parts_kind: str = ""
    unroll_bound: int = 0


@dataclass(frozen=True)
class Request:
    """One command on one or two documents, with the answer expected of it."""

    command: str
    docs: tuple[Doc, ...]
    expect: str
    extra: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join((self.command, *(d.name for d in self.docs), *self.extra))


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One size per stratum of [lo, hi], k strata, in random order."""
    width = (hi - lo + 1) / k
    sizes = [lo + int(i * width) + rng.randrange(max(1, int(width))) for i in range(k)]
    sizes = [min(hi, s) for s in sizes]
    rng.shuffle(sizes)
    return sizes


def _relset(rels) -> str:
    return "{" + ", ".join(r for r in RELATIONS if r in rels) + "}"


def _constraint_lines(constraints) -> str:
    if not constraints:
        return ""
    body = "".join(f"    {x} {_relset(rels)} {y};\n" for x, rels, y in constraints)
    return "constraints {\n" + body + "}\n"


def _random_relset(rng: random.Random, p: float) -> frozenset:
    """Each relation independently with probability p; never empty or universal."""
    while True:
        rels = frozenset(r for r in RELATIONS if rng.random() < p)
        if 0 < len(rels) < len(RELATIONS):
            return rels


def _random_interval(rng: random.Random, lo: int, hi: int) -> tuple[Fraction, Fraction]:
    a, b = sorted(rng.sample(range(lo, hi + 1), 2))
    return Fraction(a), Fraction(b)


# ---------------------------------------------------------------------------
# solve: chains and Nebel's model A


def chain_doc(rng: random.Random, name: str, steps: int, family: str = "chain") -> Doc:
    tag = rng.randrange(10 ** 6)
    atoms = tuple(f"c{tag}_{i}" for i in range(steps))
    return Doc(name, family, steps, f"workflow {name} = {' -> '.join(atoms)}\n", order=atoms)


def nebel_doc(rng: random.Random, name: str, n: int, planted: bool,
              d: float = 9.5, s: float = 6.5) -> Doc:
    """`and{v0;...}` with atom constraints from model A(n, d, s).

    Each pair is constrained with probability d/(n-1) by a label holding each
    relation with probability s/13.  A planted network first draws intervals
    and adds their relation to every label, so that schedule satisfies it.
    """
    atoms = [f"v{i}" for i in range(n)]
    intervals = [_random_interval(rng, 0, 3 * n) for _ in atoms]
    constraints = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= d / (n - 1):
                continue
            rels = _random_relset(rng, s / len(RELATIONS))
            if planted:
                rels = rels | {relation(intervals[i], intervals[j])}
                if len(rels) == len(RELATIONS):
                    continue
            constraints.append((atoms[i], rels, atoms[j]))
    family = "nebel-planted" if planted else "nebel"
    text = f"workflow {name} = and{{ {' ; '.join(atoms)} }}\n" + _constraint_lines(constraints)
    return Doc(name, family, n, text, constraints=tuple(constraints))


def solve_requests(rng: random.Random) -> list[Request]:
    """Each command gets documents of its own, so its samples are independent."""
    out = []
    for command in ("strong-check", "scenario"):
        tag = command[:2]
        for i, n in enumerate(_strata(rng, 15, 35, 28)):
            out.append(Request(command, (chain_doc(rng, f"chain{tag}{i}", n),), YES))
        for i, n in enumerate(_strata(rng, 10, 16, 52)):
            out.append(Request(command, (nebel_doc(rng, f"planted{tag}{i}", n, True),), YES))
        for i, n in enumerate(_strata(rng, 10, 16, 40)):
            out.append(Request(command, (nebel_doc(rng, f"nebel{tag}{i}", n, False),), ANY_VERDICT))
    return out


# ---------------------------------------------------------------------------
# bounded: choices and loops under the atom budget


def _bounded_shape(rng: random.Random, atoms_max: int, bound: int) -> str:
    """Part kinds whose largest execution shape has exactly atoms_max atoms."""
    cost = {"A": 1, "C": 2, "D": 1, "L": bound}
    while True:
        parts, total = [], 0
        while total < atoms_max:
            kind = rng.choice("ACDL")
            if total + cost[kind] > atoms_max:
                kind = "A"
            parts.append(kind)
            total += cost[kind]
        if len(parts) >= 3:
            return "".join(parts)


def _bounded_layout(rng: random.Random, name: str, shape: str):
    """Part expressions, atoms per part and one planted execution.

    Part p runs inside the window [20p, 20p+19], so the planted schedule
    keeps every sequence.  Loop atoms carry no constraints, so any number of
    iterations fits their window and they need no planted interval.
    """
    exprs, parts, planted = [], [], {}
    for p, kind in enumerate(shape):
        lo = 20 * p
        names = tuple(f"{name}_{p}{c}" for c in ("ab" if kind in "CD" else "a"))
        parts.append(names)
        if kind == "A":
            exprs.append(names[0])
            planted[names[0]] = _random_interval(rng, lo, lo + 19)
        elif kind == "C":
            exprs.append(f"and{{ {names[0]} ; {names[1]} }}")
            for a in names:
                planted[a] = _random_interval(rng, lo, lo + 19)
        elif kind == "D":
            exprs.append(f"or{{ {names[0]} | {names[1]} }}")
            planted[rng.choice(names)] = _random_interval(rng, lo, lo + 19)
        else:
            exprs.append(f"loop{{ {names[0]} }}")
    return exprs, parts, planted


def bounded_sat_doc(rng: random.Random, name: str, atoms_max: int) -> Doc:
    bound = rng.choice((2, 3))
    shape = _bounded_shape(rng, atoms_max, bound)
    if "L" not in shape and "D" not in shape:
        shape = shape.replace("A", "D", 1) if "A" in shape else shape.replace("C", "DA", 1)
    exprs, parts, planted = _bounded_layout(rng, name, shape)
    free = [a for k, names in zip(shape, parts) if k != "L" for a in names]
    constraints = []
    for x, y in rng.sample([(x, y) for i, x in enumerate(free) for y in free[i + 1:]],
                           min(5, len(free) * (len(free) - 1) // 2)):
        rels = _random_relset(rng, 0.25)
        if x in planted and y in planted:
            rels = rels | {relation(planted[x], planted[y])}
        if len(rels) < len(RELATIONS):
            constraints.append((x, rels, y))
    text = f"workflow {name} = {' -> '.join(exprs)}\n" + _constraint_lines(constraints)
    return Doc(name, "bounded-sat", atoms_max, text, constraints=tuple(constraints),
               parts=tuple(parts), parts_kind=shape, unroll_bound=bound)


def bounded_cycle_doc(rng: random.Random, name: str, atoms: int) -> Doc:
    """A parallel group whose three always-executed atoms form a {b} cycle.

    Nothing orders the group's members, so only an exhaustive weak-order
    search can show that no model exists.
    """
    choice = atoms == 6 and rng.random() < 0.5
    names = [f"{name}_{i}" for i in range(atoms)]
    exprs = list(names[:atoms - 1]) if choice else list(names)
    if choice:
        names.append(f"{name}_{atoms}")
        exprs.append(f"or{{ {names[-2]} | {names[-1]} }}")
    x, y, z = rng.sample(names[:atoms - 1], 3)
    before = frozenset({"b"})
    constraints = [(x, before, y), (y, before, z), (z, before, x)]
    text = f"workflow {name} = and{{ {' ; '.join(exprs)} }}\n" + _constraint_lines(constraints)
    return Doc(name, "bounded-cycle", atoms, text, constraints=tuple(constraints))


def or_chain_doc(name: str, choices: int) -> Doc:
    """A chain of binary choices: every shape has more atoms than the budget."""
    exprs = [f"or{{ {name}_{i}a | {name}_{i}b }}" for i in range(choices)]
    return Doc(name, "or-chain", choices, f"workflow {name} = {' -> '.join(exprs)}\n")


def bounded_requests(rng: random.Random) -> list[Request]:
    """Counts are chosen so the median falls among the satisfiable documents
    and p95 near the middle of the 18 twelve-choice or-chains, whose cost
    depends on nothing but their size: the three 7-atom cycles (about 2 s
    each) above them hold about a third of the samples p95 leaves above it."""
    out = []
    for i, n in enumerate(_strata(rng, 5, 7, 200)):
        doc = bounded_sat_doc(rng, f"sat{i}", n)
        out.append(Request("check", (doc,), YES, ("--unroll-bound", str(doc.unroll_bound))))
    for i, n in enumerate([7] * 3 + [6] * 9):
        out.append(Request("check", (bounded_cycle_doc(rng, f"cyc{i}", n),), NO))
    for i, n in enumerate(_strata(rng, 9, 11, 18) + [12] * 18):
        out.append(Request("check", (or_chain_doc(f"orc{i}", n),), BUDGET))
    for n in _strata(rng, 100, 300, 12):
        extra = ("--instances", str(n), "--seed", str(rng.randrange(10 ** 6)))
        out.append(Request("oracle-verify", (), ORACLE_OK, extra))
    return out


# ---------------------------------------------------------------------------
# transform: structured documents, long chains, subsumption pairs


def structured_doc(rng: random.Random, name: str, activities: int) -> Doc:
    """A random tree of sequences, groups, choices and loops.

    A few composite nodes get labels, and constraints relate atoms or
    labelled nodes that sit outside every loop, so no constraint crosses a
    loop boundary.
    """
    counter = iter(range(activities))
    outside: list[str] = []
    labels = iter(range(10 ** 6))

    def build(n: int, in_loop: bool) -> str:
        if n == 1:
            atom = f"{name}_{next(counter)}"
            if not in_loop:
                outside.append(atom)
            return atom
        kind = rng.choices("SCDL", (5, 2, 2, 1))[0]
        if kind == "L" and not in_loop and n <= 6:
            return f"loop{{ {build(n, True)} }}"
        k = min(n, rng.randint(2, 4))
        cuts = sorted(rng.sample(range(1, n), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        subs = [build(s, in_loop) for s in sizes]
        if kind in "SL":
            return "( " + " -> ".join(subs) + " )"
        body = f"{'and' if kind == 'C' else 'or'}{{ {(' ; ' if kind == 'C' else ' | ').join(subs)} }}"
        if not in_loop and rng.random() < 0.2:
            label = f"{name}_g{next(labels)}"
            outside.append(label)
            return f"{label}: {body}"
        return body

    tree = build(activities, False)
    pairs = [(x, y) for i, x in enumerate(outside) for y in outside[i + 1:]]
    constraints = [(x, _random_relset(rng, 0.4), y)
                   for x, y in rng.sample(pairs, min(len(pairs), max(2, activities // 10)))]
    text = f"workflow {name} = {tree}\n" + _constraint_lines(constraints)
    return Doc(name, "structured", activities, text)


def _subsumes_pair(rng: random.Random, name: str, steps: int, holds: bool) -> tuple[Doc, Doc]:
    """A chain and a generalisation of it, or the chain reversed.

    Both documents constrain the chain's ends; the general side allows more
    relations, so the constraint networks entail each other one way.
    """
    atoms = [f"{name}_{i}" for i in range(steps)]
    tight = frozenset({"b"})
    loose = frozenset({"b", "m"})
    first = Doc(f"{name}a", "subsumes", steps,
                f"workflow {name}a = {' -> '.join(atoms)}\n"
                + _constraint_lines([(atoms[0], tight, atoms[-1])]))
    if holds:
        i = rng.randrange(1, steps - 2)
        j = rng.randrange(i + 1, steps - 1)
        middle = atoms[i:j + 1]
        if rng.random() < 0.5:
            group = f"and{{ {middle[0]} ; ({' -> '.join(middle[1:])}) }}"
        else:
            group = f"loop{{ {' -> '.join(middle)} }}"
        parts = atoms[:i] + [group] + atoms[j + 1:]
        second_text = f"workflow {name}b = {' -> '.join(parts)}\n"
    else:
        second_text = f"workflow {name}b = {' -> '.join(reversed(atoms))}\n"
    second = Doc(f"{name}b", "subsumes", steps,
                 second_text + _constraint_lines([(atoms[0], loose, atoms[-1])]))
    return first, second


def transform_requests(rng: random.Random) -> list[Request]:
    """Every request gets documents of its own.  Counts are chosen so the
    median falls among the cheap structured normalize/dot requests and p95
    among the 4-step reversed subsumption pairs."""
    out = []
    for command, count in (("normalize", 60), ("dot", 60), ("seqfree", 24)):
        for i, n in enumerate(_strata(rng, 40, 150, count)):
            out.append(Request(command, (structured_doc(rng, f"tree{command[:2]}{i}", n),), TEXT))
    for command in ("normalize", "dot"):
        for i, n in enumerate(_strata(rng, LONG_CHAIN[0], LONG_CHAIN[1], 12)):
            doc = chain_doc(rng, f"long{command[:2]}{i}", n, family="long-chain")
            out.append(Request(command, (doc,), TEXT))
    for holds, count in ((False, 12), (True, 8)):
        for i, n in enumerate(_strata(rng, 4, 5, count)):
            pair = _subsumes_pair(rng, f"sub{'hu'[not holds]}{i}", n, holds)
            out.append(Request("subsumes", pair, HOLDS if holds else UNKNOWN))
    return out


def fixpoint_requests(seed: int, count: int = 200) -> list[Request]:
    """`normalize` on structured documents, for the fixed-point probe.

    The same for every workload: its own stream of the seed."""
    rng = random.Random(f"twf-bench:fixpoint:{seed}")
    return [Request("normalize", (structured_doc(rng, f"fix{i}", n),), TEXT)
            for i, n in enumerate(_strata(rng, 40, 150, count))]


def depth_doc(seed: int, steps: int) -> Doc:
    """The depth probe's chain of a given length."""
    return chain_doc(random.Random(f"twf-bench:depth:{seed}:{steps}"), f"depth{steps}", steps,
                     family="depth-probe")


_BUILDERS = {"solve": solve_requests, "bounded": bounded_requests, "transform": transform_requests}


def generate(workload: str, seed: int) -> list[Request]:
    """The workload's requests for a seed, in the order the loop sends them."""
    rng = random.Random(f"twf-bench:{workload}:{seed}")
    groups: dict[tuple[str, str], list[Request]] = {}
    for req in _BUILDERS[workload](rng):
        family = req.docs[0].family if req.docs else "oracle"
        groups.setdefault((family, req.command), []).append(req)
    return _interleave(rng, list(groups.values()))


def _interleave(rng: random.Random, groups: list[list[Request]]) -> list[Request]:
    """Merge groups so that every prefix holds each group in proportion.

    A run that stops part-way through the order then still sends the same
    mix of families and commands, which keeps runs of different seeds and
    speeds comparable.
    """
    keyed = []
    for group in groups:
        offset = rng.random()
        keyed += [((i + offset) / len(group), rng.random(), req) for i, req in enumerate(_spread(group))]
    keyed.sort(key=lambda item: item[:2])
    return [req for *_, req in keyed]


def _spread(group: list[Request]) -> list[Request]:
    """The group ranked by size, then sent in golden-ratio order of rank.

    Rank r goes to fractional position r * 0.618... mod 1, so every prefix
    holds small and large documents alike: the part of the order a run
    reaches after its last full pass costs about its share of a pass, and
    the traced run's first third is a fair sample, whichever seed drew the
    sizes.
    """
    ranked = sorted(group, key=lambda r: (r.docs[0].size if r.docs else int(r.extra[1]), r.expect))
    order = sorted(range(len(ranked)), key=lambda i: (i * 0.6180339887498949) % 1)
    return [ranked[i] for i in order]


def documents(requests: list[Request]) -> dict[str, Doc]:
    return {doc.name: doc for r in requests for doc in r.docs}
