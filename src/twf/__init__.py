"""Reasoning engine for workflows extended with qualitative interval constraints.

Workflows combine atomic activities through sequence, conjunction,
disjunction and loop; an attached constraint network adds fine-grained
interval relations between their execution times.  The package parses a
textual syntax for both, decides (bounded) satisfiability, strong
satisfiability, equivalence and subsumption, and produces exact rational
schedules as witnesses.
"""

from .allen import (
    EMPTY,
    UNIVERSAL,
    Interval,
    Relation,
    RelationSet,
    compose,
    compose_sets,
    generate_composition_table,
    interval,
    inverse,
    inverse_set,
    relation_between,
)
from .extended import (
    ExtendedWorkflow,
    check_satisfiable,
    check_strong_satisfiable,
    embed,
    find_witness,
    resolve_key,
    sequence_free,
    subsumes_sufficient,
    validate,
    variable_paths,
)
from .dsl import ParseError, export_dot, format_document, parse, parse_extended
from .qcn import (
    Qcn,
    Schedule,
    entails,
    is_consistent,
    path_consistency,
    realize_scenario,
    scenarios,
)
from .semantics import (
    AtomBudgetError,
    Model,
    check_model,
    execution_times,
    find_model,
    hull,
    weak_orders,
)
from .workflow import (
    Atomic,
    Conj,
    Disj,
    Loop,
    Resolution,
    Seq,
    SubsumptionVerdict,
    Workflow,
    atom,
    conj,
    disj,
    loop,
    normalize,
    rename_occurrences,
    resolutions,
    seq,
    substitute,
    subsumes_syntactic,
    subworkflows,
    proper_subworkflows,
    unroll,
)

__version__ = "0.1.0"


def corpus_path(name: str):
    """Filesystem path of a shipped corpus file, e.g. ``recette.twf``."""
    from importlib import resources  # on first use: it loads zipfile, tempfile, pathlib
    return resources.files(__package__) / "corpus" / name
