"""Textual syntax for constrained workflows.

Grammar (terms may carry a reference label; ``#`` starts a line comment):

    doc        := "workflow" name "=" expr ("constraints" "{" constraint* "}")?
    expr       := term ("->" term)*
    term       := [label ":"] atom
                | [label ":"] "and{" expr (";" expr)+ "}"
                | [label ":"] "or{"  expr ("|" expr)+ "}"
                | [label ":"] "loop{" expr "}"
                | [label ":"] "(" expr ")"
    atom       := identifier | quoted-string
    constraint := ref relset ref ";"
    relset     := "{" [rel ("," rel)*] "}"
    ref        := atom-name | label

A ``->`` chain becomes one sequence node and each ``and{}``/``or{}`` group
one conjunction/disjunction node holding all of its parts; parentheses
keep the source nesting.  Brackets (``(``, ``and{``, ``or{``, ``loop{``)
nest at most MAX_NESTING levels deep.  Atom names may be single- or
double-quoted strings (backslash escapes), so activities can be whole
phrases.  Constraint references resolve to interval variables of the
attached network.  An empty ``relset`` is the inconsistent constraint.

Tokens and nodes carry text offsets; a 1-based ``line:col`` is worked out
from an offset only when a diagnostic or :attr:`ParsedDocument.node_spans`
needs it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from .allen import RELATIONS, Relation, RelationSet
from .extended import (
    ExtendedWorkflow,
    KeyResolutionError,
    _validate,
    key_census,
    lookup_key,
    variable_paths,
)
from .qcn import Qcn
from .workflow import (
    Atomic,
    Conj,
    Disj,
    Loop,
    Path,
    Seq,
    Workflow,
    fresh_occ,
    iter_nodes,
    node_at,
    normalize,
)

RESERVED = {"workflow", "constraints", "and", "or", "loop"}

# Deepest bracket nesting the parser accepts.  The tree, and every
# recursive walk over it, is as deep as the brackets, so the cap keeps
# them all far from Python's recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class ParseError(Exception):
    """Parsing or validation failed; carries located diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line:col of a text offset; every character but a newline
    is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


# A token is (kind, value, offset): the kind is IDENT, STRING, ARROW, EOF or
# the punctuation character itself, and the offset indexes the source text.
Token = tuple[str, str, int]

# A bare name: an identifier token, and what the printer leaves unquoted.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Blanks and comments, then one alternative per token kind.  The blanks and
# comments can be read only one way, so the prefix never backtracks.  A
# quoted name ends on its own line unless a backslash escapes the newline; a
# quote that starts no such name falls through to BAD, as does any
# character no token takes.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    rf"(?:(?P<IDENT>{_NAME_RE.pattern})|(?P<PUNCT>[{{}}():;|,=])|(?P<ARROW>->)"
    r"""|(?P<STRING>'(?:\\.|[^\\'\n])*'|"(?:\\.|[^\\"\n])*")|(?P<EOF>\Z)|(?P<BAD>.))""",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(text: str) -> list[Token]:
    """The tokens of a text, up to and including EOF."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind in ("IDENT", "ARROW", "PUNCT"):
            start, end = match.span(kind)
            value = text[start:end]
            append((value if kind == "PUNCT" else kind, value, start))
        elif kind == "STRING":
            start, end = match.span(kind)
            append((kind, _ESCAPE_RE.sub(r"\1", text[start + 1 : end - 1]), start))
        elif kind == "EOF":
            # input that ends in a comment ends at its '#', the first one on
            # the last line, for only blanks and comments follow the last token
            start = match.start()
            comment = text.find("#", max(start, text.rfind("\n", start) + 1))
            append((kind, "", len(text) if comment < 0 else comment))
            break
        else:
            char, start = match[kind], match.start(kind)
            message = "unterminated string" if char in "'\"" else f"unexpected character {char!r}"
            raise ParseError([Diagnostic(*_position(text, start), message)])
    return tokens


@dataclass
class ParsedDocument:
    """A parsed source file: text, workflow name, the extended workflow,
    and the text offset each node starts at (by ``id`` of the node)."""

    text: str
    name: str
    extended: ExtendedWorkflow
    offsets: dict[int, int] = field(default_factory=dict)

    @cached_property
    def node_spans(self) -> dict[Path, tuple[int, int]]:
        """The line:col each node (by path) starts at."""
        return {
            path: _position(self.text, self.offsets.get(id(node), 0))
            for path, node in iter_nodes(self.extended.workflow)
        }


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.offsets: dict[int, int] = {}

    def fail(self, message: str, offset: Optional[int] = None) -> ParseError:
        offset = self.tokens[self.pos][2] if offset is None else offset
        return ParseError([Diagnostic(*_position(self.text, offset), message)])

    def expect(self, kind: str, what: str) -> Token:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise self.fail(f"expected {what}")
        self.pos += 1
        return token

    # --- grammar

    def document(self) -> tuple[str, Workflow, list[tuple[str, int, str, int]]]:
        """The name, the tree, and the constraints as (left, bits, right, offset)."""
        if self.tokens[0][:2] != ("IDENT", "workflow"):
            raise self.fail("expected keyword 'workflow'")
        self.pos = 1
        name = self.expect("IDENT", "a workflow name")[1]
        self.expect("=", "'='")
        tree = self.expr()
        constraints: list[tuple[str, int, str, int]] = []
        if self.tokens[self.pos][:2] == ("IDENT", "constraints"):
            self.pos += 1
            self.expect("{", "'{'")
            bit_of = {r.token: r.bit for r in RELATIONS}
            while self.tokens[self.pos][0] != "}":
                constraints.append(self.constraint(bit_of))
            self.pos += 1
        if self.tokens[self.pos][0] != "EOF":
            raise self.fail("unexpected trailing input")
        return name, tree, constraints

    def expr(self) -> Workflow:
        first = self.term()
        if self.tokens[self.pos][0] != "ARROW":
            return first
        parts = [first]
        while self.tokens[self.pos][0] == "ARROW":
            self.pos += 1
            parts.append(self.term())
        seq = Seq(tuple(parts))
        self.offsets[id(seq)] = self.offsets[id(first)]
        return seq

    def bracketed(self, opener: Token, closer: str, sep: Optional[str] = None) -> list[Workflow]:
        """The expressions up to the closing bracket: one, or with a
        separator two or more."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"brackets nest deeper than {MAX_NESTING} levels", opener[2])
        parts = [self.expr()]
        while sep is not None and self.tokens[self.pos][0] == sep:
            self.pos += 1
            parts.append(self.expr())
        if sep is not None and len(parts) < 2:
            raise self.fail(f"'{opener[1]}' group needs at least two alternatives")
        self.expect(closer, f"'{closer}'")
        self.depth -= 1
        return parts

    def term(self) -> Workflow:
        """One term; a labeled term starts at its label."""
        tokens = self.tokens
        kind, value, start = tokens[self.pos]
        label: Optional[str] = None
        if kind == "IDENT" and tokens[self.pos + 1][0] == ":" and value not in RESERVED:
            label = value
            self.pos += 2
            kind, value, _ = tokens[self.pos]
        opener = tokens[self.pos]
        self.pos += 1
        node: Workflow
        if kind == "STRING" or kind == "IDENT" and value not in RESERVED:
            # source order is preorder, so atoms are numbered as a walk meets them
            node = Atomic(value, fresh_occ(), label)
        elif kind == "IDENT" and value in ("and", "or"):
            self.expect("{", "'{'")
            parts = tuple(self.bracketed(opener, "}", ";" if value == "and" else "|"))
            node = Conj(parts, label) if value == "and" else Disj(parts, label)
        elif kind == "IDENT" and value == "loop":
            self.expect("{", "'{'")
            (body,) = self.bracketed(opener, "}")
            node = Loop(body, label)
        elif kind == "(":
            (node,) = self.bracketed(opener, ")")
            if label is None:
                return node
            if node.label is not None:
                raise self.fail(f"node already carries label {node.label!r}", start)
            node = replace(node, label=label)
        else:
            raise self.fail("expected an activity, group, or '('", opener[2])
        self.offsets[id(node)] = start
        return node

    def constraint(self, bit_of: dict[str, int]) -> tuple[str, int, str, int]:
        offset = self.tokens[self.pos][2]
        left = self.ref()
        bits = self.relset(bit_of)
        right = self.ref()
        self.expect(";", "';'")
        return left, bits, right, offset

    def ref(self) -> str:
        kind, value, _ = self.tokens[self.pos]
        if kind == "STRING" or kind == "IDENT" and value not in RESERVED:
            self.pos += 1
            return value
        raise self.fail("expected an activity name or label")

    def relset(self, bit_of: dict[str, int]) -> int:
        self.expect("{", "a relation set")
        bits = 0
        # "{}" is the empty set, which the printer writes for an inconsistent constraint
        more = self.tokens[self.pos][0] != "}"
        while more:
            _, value, offset = self.expect("IDENT", "a relation token")
            if value not in bit_of:
                raise self.fail(f"unknown relation {value!r}", offset)
            bits |= bit_of[value]
            more = self.tokens[self.pos][0] == ","
            self.pos += more
        self.expect("}", "'}'")
        return bits


def parse(text: str) -> ParsedDocument:
    """Parse a source document into a validated extended workflow.

    Raises ParseError with located diagnostics on lexical or syntactic
    errors, on unknown or ambiguous constraint references, and on
    validation violations (duplicate labels, loop-boundary constraints).
    """
    parser = _Parser(text)
    name, tree, raw_constraints = parser.document()

    diagnostics: list[Diagnostic] = []
    census = key_census(tree)
    variables: dict[str, None] = {}
    for left, _, right, offset in raw_constraints:
        for key in (left, right):
            if key in variables:
                continue
            try:
                lookup_key(census, key)
                variables[key] = None
            except KeyResolutionError as exc:
                diagnostics.append(Diagnostic(*_position(text, offset), str(exc)))
    if diagnostics:
        raise ParseError(diagnostics)

    network = Qcn.universal(tuple(variables))
    for left, bits, right, _ in raw_constraints:
        network = network.set_constraint(left, right, RelationSet(bits))
    extended = ExtendedWorkflow(tree, network, {key: key for key in variables})

    report = _validate(extended, census)
    if not report.ok:
        offset_of: dict[frozenset[str], int] = {}
        for left, _, right, offset in raw_constraints:
            offset_of.setdefault(frozenset((left, right)), offset)
        for violation in report.violations:
            offset = 0
            if violation.constraint is not None:
                offset = offset_of.get(frozenset(violation.constraint), 0)
            elif violation.kind == "duplicate-label":
                offset = parser.offsets[id(node_at(tree, violation.paths[-1]))]
            diagnostics.append(Diagnostic(*_position(text, offset), violation.message))
        raise ParseError(diagnostics)

    return ParsedDocument(text, name, extended, parser.offsets)


def parse_extended(text: str) -> ExtendedWorkflow:
    return parse(text).extended


# ---------------------------------------------------------------------------
# Canonical printing


def _quote(name: str) -> str:
    if _NAME_RE.fullmatch(name) and name not in RESERVED:
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\\n")
    return f"'{escaped}'"


def _format_term(node: Workflow) -> str:
    prefix = f"{node.label}: " if node.label is not None else ""
    match node:
        case Atomic(name, _, _):
            return f"{prefix}{_quote(name)}"
        case Seq(parts):
            return f"{prefix}( {' -> '.join(map(_format_term, parts))} )"
        case Conj(parts):
            return f"{prefix}and{{ {' ; '.join(map(_format_expr, parts))} }}"
        case Disj(parts):
            return f"{prefix}or{{ {' | '.join(map(_format_expr, parts))} }}"
        case Loop(body, _):
            return f"{prefix}loop{{ {_format_expr(body)} }}"
    raise TypeError(f"not a workflow node: {node!r}")


def _format_expr(node: Workflow) -> str:
    if isinstance(node, Seq) and node.label is None:
        return " -> ".join(map(_format_term, node.parts))
    return _format_term(node)


def format_document(ew: ExtendedWorkflow, name: str = "main") -> str:
    """Canonical source text: the normalized workflow, then the constraints
    in the order of the network's variables.

    Parsing the output yields the same extended workflow back (up to
    normalization), which the round-trip tests rely on.
    """
    tree = normalize(ew.workflow)
    lines = [f"workflow {name} = {_format_expr(tree)}"]
    key_of = {var: key for key, var in ew.r_map.items()}
    entries = []
    for vi, vj, rels in ew.network.nontrivial_pairs():
        entries.append((key_of[vi], rels, key_of[vj]))
    for name_, _ in ew.network.degenerate_diagonal():
        # a constrained diagonal is always empty; any eq-free set restates it
        entries.append((key_of[name_], RelationSet.of(Relation.BEFORE), key_of[name_]))
    if entries:
        lines.append("constraints {")
        for left, rels, right in entries:
            tokens = ", ".join(r.token for r in rels)
            lines.append(f"    {_quote(left)} {{{tokens}}} {_quote(right)};")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export

_BAR = 'shape=box, style=filled, fillcolor=black, label="", height=0.08'
_DIAMOND = 'shape=diamond, label=""'


def export_dot(ew: ExtendedWorkflow, name: str = "workflow") -> str:
    """Activity-diagram style DOT text.

    Atoms become rounded boxes, conjunctions a fork/join bar pair,
    disjunctions a choice/merge diamond pair and loops an entry/exit
    diamond pair with a back edge.  Network constraints are rendered as
    dashed labeled edges between the nodes standing for their ends.
    """
    counter = iter(range(10 ** 9))
    nodes: list[str] = []
    edges: list[str] = []
    anchor: dict[Path, str] = {}

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

    def walk(node: Workflow, path: Path) -> tuple[str, str]:
        # Ids are numbered like the nodes of the binary expansion in
        # preorder: a node with k parts takes k - 1 of them, a sequence all
        # before its first part, a group one before each part but the last.
        match node:
            case Atomic(atom_name, _, _):
                nid = f"a{next(counter)}"
                nodes.append(f'{nid} [label="{esc(atom_name)}", shape=box, style=rounded];')
                anchor[path] = nid
                return nid, nid
            case Seq(parts):
                for _ in parts[1:]:
                    next(counter)
                first_in, last_out = walk(parts[0], path + (0,))
                for step, part in enumerate(parts[1:], 1):
                    part_in, part_out = walk(part, path + (step,))
                    edges.append(f"{last_out} -> {part_in};")
                    last_out = part_out
                anchor[path] = first_in
                return first_in, last_out
            case Conj(parts) | Disj(parts):
                split, merge, style = (
                    ("fork", "join", _BAR) if isinstance(node, Conj) else ("choice", "merge", _DIAMOND)
                )
                pairs = []
                ends = []
                for step, part in enumerate(parts[:-1]):
                    idx = next(counter)
                    pairs.append((f"{split}{idx}", f"{merge}{idx}"))
                    nodes.append(f"{split}{idx} [{style}];")
                    nodes.append(f"{merge}{idx} [{style}];")
                    ends.append(walk(part, path + (step,)))
                # the innermost pair joins the last two parts; each outer
                # pair joins its own part and the pair inside it
                inner = walk(parts[-1], path + (len(parts) - 1,))
                for (s_id, m_id), (p_in, p_out) in zip(reversed(pairs), reversed(ends)):
                    edges.append(f"{s_id} -> {p_in};")
                    edges.append(f"{s_id} -> {inner[0]};")
                    edges.append(f"{p_out} -> {m_id};")
                    edges.append(f"{inner[1]} -> {m_id};")
                    inner = (s_id, m_id)
                anchor[path] = inner[0]
                return inner
            case Loop(body, _):
                idx = next(counter)
                loop_in = f"loopin{idx}"
                loop_out = f"loopout{idx}"
                nodes.append(f"{loop_in} [{_DIAMOND}];")
                nodes.append(f"{loop_out} [{_DIAMOND}];")
                b_in, b_out = walk(body, path + (0,))
                edges.append(f"{loop_in} -> {b_in};")
                edges.append(f"{b_out} -> {loop_out};")
                edges.append(f"{loop_out} -> {loop_in};")
                anchor[path] = loop_in
                return loop_in, loop_out
        raise TypeError(f"not a workflow node: {node!r}")

    entry, exit_ = walk(ew.workflow, ())
    nodes.append('start [shape=circle, style=filled, fillcolor=black, label=""];')
    nodes.append('end [shape=doublecircle, label=""];')
    edges.append(f"start -> {entry};")
    edges.append(f"{exit_} -> end;")

    key_paths = variable_paths(ew)
    for vi, vj, rels in ew.network.nontrivial_pairs():
        a = anchor[key_paths[vi]]
        b = anchor[key_paths[vj]]
        tokens = ", ".join(r.token for r in rels)
        edges.append(f'{a} -> {b} [style=dashed, label="{esc("{" + tokens + "}")}", constraint=false];')

    body = "\n".join(f"    {line}" for line in nodes + edges)
    return f'digraph "{esc(name)}" {{\n    rankdir=LR;\n{body}\n}}\n'
