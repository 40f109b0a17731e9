"""Command-line front end.

Exit codes: 0 for a positive verdict or plain success, 1 for a negative
verdict (unsatisfiable, inconsistent, unknown subsumption, failed
verification), 2 for usage, parse or budget errors.  Output is
deterministic for fixed inputs, flags and seeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING, Optional

from . import __version__
from .allen import RELATIONS, Relation, RelationSet, UNIVERSAL, generate_composition_table, compose
from .dsl import ParseError, export_dot, format_document, parse
from .extended import (
    ExtendedWorkflow,
    InvalidExtendedWorkflowError,
    refutes_plan,
    sequence_free,
    variable_paths,
)
from .qcn import (
    Qcn,
    check_schedule,
    entails,
    is_consistent,
    path_consistency,
    realize_scenario,  # not called here, but perfbench's tracer wraps cli's names
    scenarios,
)
from .semantics import (
    AtomBudgetError,
    Model,
    check_model,
    find_model,
    hull_obligation,
    network_consistent_bruteforce,
    network_models_bruteforce,
    network_scenario_relations_bruteforce,
    weak_orders,
)
from .workflow import Loop, iter_nodes

if TYPE_CHECKING:
    import random

SCHEMA_VERSION = 1


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse(text)
    except ParseError as exc:
        for diagnostic in exc.diagnostics:
            print(f"{path}:{diagnostic}", file=sys.stderr)
        raise SystemExit(2)


def _has_loops(ew: ExtendedWorkflow) -> bool:
    return any(isinstance(n, Loop) for _, n in iter_nodes(ew.workflow))


def _shown(name: str) -> str:
    """A name as one line of a text report: backslash and newline escaped."""
    return name.replace("\\", "\\\\").replace("\n", "\\n")


def _witness_rows(model: Model) -> list[dict[str, str]]:
    names: dict[str, int] = {}
    for atom in model.instance.atoms:
        names[atom.name] = names.get(atom.name, 0) + 1
    counters: dict[str, int] = {}
    rows = []
    for atom in model.instance.atoms:
        counters[atom.name] = counters.get(atom.name, 0) + 1
        shown = atom.name if names[atom.name] == 1 else f"{atom.name}#{counters[atom.name]}"
        iv = model.assignment[atom.occ]
        rows.append({"activity": shown, "start": str(iv.lo), "end": str(iv.hi)})
    return rows


def _emit_verdict(
    args,
    command: str,
    verdict: bool,
    witness: Optional[list[dict[str, str]]],
    bounded: bool,
    unroll_bound: Optional[int],
) -> int:
    if getattr(args, "json", False):
        import json

        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool": "twf",
            "tool_version": __version__,
            "command": command,
            "file": args.file,
            "verdict": verdict,
            "bounded": bounded,
            "unroll_bound": unroll_bound,
            "witness": witness,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        qualifier = f" (bounded search, loop bound {unroll_bound})" if bounded else ""
        print(f"{command}{qualifier}: {'yes' if verdict else 'no'}")
        if witness:
            print("witness schedule:")
            for row in witness:
                print(f"    {_shown(row['activity'])} [{row['start']}, {row['end']}]")
    return 0 if verdict else 1


def _at_least_one(value: int, option: str) -> bool:
    if value < 1:
        print(f"error: {option} must be at least 1, got {value}", file=sys.stderr)
    return value >= 1


def _cmd_check(args) -> int:
    if not _at_least_one(args.unroll_bound, "--unroll-bound"):
        return 2
    doc = _load(args.file)
    ew = doc.extended
    paths = variable_paths(ew)
    try:
        model = find_model(
            ew.workflow, ew.network, paths, unroll_bound=args.unroll_bound, refute=refutes_plan
        )
    except AtomBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    witness = None
    if model is not None:
        if not check_model(model.instance, model.assignment, ew.network, paths):
            print("error: witness failed re-verification", file=sys.stderr)
            return 2
        witness = _witness_rows(model)
    return _emit_verdict(
        args, "satisfiable", model is not None, witness, _has_loops(ew), args.unroll_bound
    )


def _cmd_strong_check(args) -> int:
    doc = _load(args.file)
    try:
        free = sequence_free(doc.extended)
    except InvalidExtendedWorkflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = is_consistent(free.network)
    return _emit_verdict(args, "strongly-satisfiable", verdict, None, False, None)


def _cmd_scenario(args) -> int:
    doc = _load(args.file)
    free = sequence_free(doc.extended)
    found = next(scenarios(free.network), None)
    if found is None:
        print("no realizable scenario: the network is inconsistent")
        return 1
    scenario, schedule = found
    if not check_schedule(free.network, schedule):
        print("error: schedule failed re-verification", file=sys.stderr)
        return 2
    print("scenario:")
    for vi, vj, rels in scenario.nontrivial_pairs():
        print(f"    {_shown(vi)} {{{rels.single().token}}} {_shown(vj)}")
    print("schedule:")
    for name in scenario.variables:
        iv = schedule[name]
        print(f"    {_shown(name)} [{iv.lo}, {iv.hi}]")
    return 0


def _cmd_normalize(args) -> int:
    doc = _load(args.file)
    sys.stdout.write(format_document(doc.extended, doc.name))
    return 0


def _cmd_seqfree(args) -> int:
    doc = _load(args.file)
    sys.stdout.write(format_document(sequence_free(doc.extended), doc.name))
    return 0


def _cmd_subsumes(args) -> int:
    from .extended import subsumes_sufficient
    from .workflow import SubsumptionVerdict

    first = _load(args.file)
    second = _load(args.file2)
    verdict = subsumes_sufficient(first.extended, second.extended)
    print(verdict.value)
    return 0 if verdict is SubsumptionVerdict.HOLDS else 1


def _cmd_dot(args) -> int:
    doc = _load(args.file)
    text = export_dot(doc.extended, doc.name)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _table_mismatches() -> list[tuple[Relation, Relation]]:
    """Entries where the frozen composition table and a fresh derivation differ."""
    generated = generate_composition_table()
    return [
        (r, s)
        for r in RELATIONS
        for s in RELATIONS
        if generated[(r, s)] != compose(r, s)
    ]


def _cmd_table(args) -> int:
    if args.verify:
        mismatches = _table_mismatches()
        print(f"{169 - len(mismatches)}/169 entries match")
        for r, s in mismatches:
            print(f"    mismatch at ({r.token}, {s.token})")
        return 0 if not mismatches else 1
    tokens = [r.token for r in RELATIONS]
    cells = {
        (r, s): ("*" if compose(r, s) == UNIVERSAL else ",".join(x.token for x in compose(r, s)))
        for r in RELATIONS
        for s in RELATIONS
    }
    width = max(len(text) for text in cells.values())
    width = max(width, max(len(t) for t in tokens))
    header = "     | " + " | ".join(t.rjust(width) for t in tokens)
    print("composition table: row . column ('*' = all 13 relations)")
    print(header)
    print("-" * len(header))
    for r in RELATIONS:
        row = " | ".join(cells[(r, s)].rjust(width) for s in RELATIONS)
        print(f"{r.token.rjust(4)} | {row}")
    return 0


def _random_network(rng: random.Random, size: int, tightness: float = 0.6, widest: int = 4) -> Qcn:
    names = tuple(f"v{i}" for i in range(size))
    network = Qcn.universal(names)
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < tightness:
                count = rng.randint(1, widest)
                rels = RelationSet.of(*rng.sample(RELATIONS, count))
                network = network.set_constraint(names[i], names[j], rels)
    return network


def _cmd_oracle_verify(args) -> int:
    import random

    if not _at_least_one(args.instances, "--instances"):
        return 2
    rng = random.Random(args.seed)
    failures = 0

    table_bad = len(_table_mismatches())
    print(f"composition table: {169 - table_bad}/169 entries match")
    failures += table_bad

    disagreements = 0
    for _ in range(args.instances):
        network = _random_network(rng, rng.randint(2, 4))
        if is_consistent(network) != network_consistent_bruteforce(network):
            disagreements += 1
    print(
        f"consistency: {args.instances} networks (<=4 variables), "
        f"{disagreements} disagreements with brute force"
    )
    failures += disagreements

    pc_violations = 0
    pc_instances = max(20, args.instances // 10)
    for _ in range(pc_instances):
        network = _random_network(rng, rng.randint(3, 5), tightness=0.9)
        refined, ok = path_consistency(network)
        realizable = network_scenario_relations_bruteforce(network)
        for (vi, vj), rels in realizable.items():
            kept = refined.get(vi, vj) if ok else RelationSet(0)
            if rels.bits & ~kept.bits:
                pc_violations += 1
                break
    print(
        f"path consistency: {pc_instances} networks (<=5 variables), "
        f"{pc_violations} removed a realizable relation"
    )
    failures += pc_violations

    # search plans of 2-4 atoms: some end-before-start pairs and one to
    # three hull obligations, each side one atom or a random atom set
    def side(atoms: range) -> list[int]:
        return rng.sample(atoms, 1 if rng.random() < 0.5 else rng.randint(2, len(atoms)))

    wrong_refutations = 0
    for _ in range(pc_instances):
        atoms = range(rng.randint(2, 4))
        le_pairs = [(2 * i + 1, 2 * j) for i in atoms for j in atoms if i != j and rng.random() < 0.25]
        hulls = [
            hull_obligation(
                side(atoms), side(atoms), RelationSet.of(*rng.sample(RELATIONS, rng.randint(1, 4)))
            )
            for _ in range(rng.randint(1, 3))
        ]
        plan = (len(atoms), le_pairs, hulls)
        if refutes_plan(*plan) and next(weak_orders(*plan), None):
            wrong_refutations += 1
    print(
        f"shape refutation: {pc_instances} plans (<=4 atoms), "
        f"{wrong_refutations} refuted a plan with a model"
    )
    failures += wrong_refutations

    entail_disagreements = 0
    for _ in range(pc_instances):
        first = _random_network(rng, rng.randint(2, 3), tightness=0.9)
        second = _random_network(rng, len(first.variables), tightness=0.8, widest=12)
        held = all(check_schedule(second, model) for model in network_models_bruteforce(first))
        if entails(first, second) != held:
            entail_disagreements += 1
    print(
        f"entailment: {pc_instances} network pairs (<=3 variables), "
        f"{entail_disagreements} disagreements with brute force"
    )
    failures += entail_disagreements

    print("result:", "ok" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="twf",
        description="Reason about workflows with qualitative interval constraints.",
    )
    parser.add_argument("--version", action="version", version=f"twf {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("check", help="bounded satisfiability with a witness schedule")
    p.add_argument("file")
    p.add_argument("--unroll-bound", type=int, default=3, metavar="K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = commands.add_parser("strong-check", help="consistency of the sequence-free network")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_strong_check)

    p = commands.add_parser("scenario", help="one realizable scenario plus a rational schedule")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_scenario)

    p = commands.add_parser("normalize", help="canonical form of a document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_normalize)

    p = commands.add_parser("seqfree", help="sequence-free form of a document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_seqfree)

    p = commands.add_parser("subsumes", help="is the first workflow subsumed by the second?")
    p.add_argument("file")
    p.add_argument("file2")
    p.set_defaults(fn=_cmd_subsumes)

    p = commands.add_parser("dot", help="activity-diagram DOT export")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_dot)

    p = commands.add_parser("table", help="print or re-derive the composition table")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_table)

    p = commands.add_parser("oracle-verify", help="randomized solver-vs-oracle cross-check")
    p.add_argument("--instances", type=int, default=500, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(fn=_cmd_oracle_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except BrokenPipeError:
        return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
