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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Optional

from .allen import Relation, RelationSet
from .extended import (
    ExtendedWorkflow,
    KeyResolutionError,
    key_census,
    lookup_key,
    validate,
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


class Token(NamedTuple):
    kind: str  # IDENT, STRING, ARROW, one-char punctuation, EOF
    value: str
    line: int
    col: int


# One alternative per token kind, tried in order.  A quoted name ends on
# its own line unless a backslash escapes the newline; a quote that starts
# no such name falls through to BAD, as does any character no token takes.
_TOKEN_RE = re.compile(
    r"""(?P<STRING>'(?:\\.|[^\\'\n])*'|"(?:\\.|[^\\"\n])*")"""
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<ARROW>->)|(?P<PUNCT>[{}():;|,=])"
    r"|(?P<SKIP>[ \t\r\n]+)|(?P<COMMENT>#[^\n]*)|(?P<BAD>.)",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(text: str) -> Iterator[Token]:
    """Tokens with 1-based line:col positions; every character but a
    newline is one column."""
    line, line_start, end = 1, 0, 0
    for match in _TOKEN_RE.finditer(text):
        kind, start, end = match.lastgroup, match.start(), match.end()
        col = start - line_start + 1
        if kind in ("IDENT", "ARROW", "PUNCT"):
            value = match.group()
            yield Token(value if kind == "PUNCT" else kind, value, line, col)
            continue
        if kind == "BAD":
            ch = match.group()
            message = "unterminated string" if ch in "'\"" else f"unexpected character {ch!r}"
            raise ParseError([Diagnostic(line, col, message)])
        if kind == "COMMENT":
            end = start  # input that ends in a comment ends at its '#'
            continue
        if kind == "STRING":
            yield Token(kind, _ESCAPE_RE.sub(r"\1", text[start + 1 : end - 1]), line, col)
        # only blanks and quoted names span newlines
        newline = text.rfind("\n", start, end)
        if newline >= 0:
            line += text.count("\n", start, end)
            line_start = newline + 1
    yield Token("EOF", "", line, end - line_start + 1)


@dataclass
class ParsedDocument:
    """A parsed source file: text, workflow name, the extended workflow,
    and the source location of each node (by path)."""

    text: str
    name: str
    extended: ExtendedWorkflow
    node_spans: dict[Path, tuple[int, int]] = field(default_factory=dict)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.depth = 0
        self.spans: dict[int, tuple[int, int]] = {}

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        self.pos += 1
        return token

    def fail(self, message: str, token: Optional[Token] = None) -> "ParseError":
        token = token or self.current
        return ParseError([Diagnostic(token.line, token.col, message)])

    def expect(self, kind: str, what: str) -> Token:
        if self.current.kind != kind:
            raise self.fail(f"expected {what}")
        return self.advance()

    def keyword(self, word: str) -> Token:
        if self.current.kind != "IDENT" or self.current.value != word:
            raise self.fail(f"expected keyword {word!r}")
        return self.advance()

    # --- grammar

    def document(self) -> tuple[str, Workflow, list[tuple[str, RelationSet, str, Token]]]:
        self.keyword("workflow")
        name = self.expect("IDENT", "a workflow name")
        self.expect("=", "'='")
        tree = self.expr()
        constraints: list[tuple[str, RelationSet, str, Token]] = []
        if self.current.kind == "IDENT" and self.current.value == "constraints":
            self.advance()
            self.expect("{", "'{'")
            while self.current.kind != "}":
                constraints.append(self.constraint())
            self.expect("}", "'}'")
        if self.current.kind != "EOF":
            raise self.fail("unexpected trailing input")
        return name.value, tree, constraints

    def expr(self) -> Workflow:
        parts = [self.term()]
        while self.current.kind == "ARROW":
            self.advance()
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]
        return self._note(Seq(tuple(parts)), self.spans[id(parts[0])])

    def bracketed(self, opener: Token, closer: str, sep: Optional[str] = None) -> list[Workflow]:
        """The expressions up to the closing bracket: one, or with a
        separator two or more."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"brackets nest deeper than {MAX_NESTING} levels", opener)
        parts = [self.expr()]
        while sep is not None and self.current.kind == sep:
            self.advance()
            parts.append(self.expr())
        if sep is not None and len(parts) < 2:
            raise self.fail(f"'{opener.value}' group needs at least two alternatives")
        self.expect(closer, f"'{closer}'")
        self.depth -= 1
        return parts

    def term(self) -> Workflow:
        label: Optional[str] = None
        start = self.current
        if (
            self.current.kind == "IDENT"
            and self.current.value not in RESERVED
            and self.tokens[self.pos + 1].kind == ":"
        ):
            label = self.advance().value
            self.advance()
        token = self.current
        if token.kind == "IDENT" and token.value in ("and", "or"):
            self.advance()
            self.expect("{", "'{'")
            sep = ";" if token.value == "and" else "|"
            parts = self.bracketed(token, "}", sep)
            kind = Conj if token.value == "and" else Disj
            out = self._note(kind(tuple(parts)), (start.line, start.col))
            return self._label(out, label, start)
        if token.kind == "IDENT" and token.value == "loop":
            self.advance()
            self.expect("{", "'{'")
            (body,) = self.bracketed(token, "}")
            return self._label(self._note(Loop(body), (start.line, start.col)), label, start)
        if token.kind == "(":
            self.advance()
            (inner,) = self.bracketed(token, ")")
            return self._label(inner, label, start)
        if token.kind == "STRING" or (token.kind == "IDENT" and token.value not in RESERVED):
            self.advance()
            # source order is preorder, so atoms are numbered as a walk meets them
            leaf = Atomic(token.value, fresh_occ())
            return self._label(self._note(leaf, (token.line, token.col)), label, start)
        raise self.fail("expected an activity, group, or '('")

    def constraint(self) -> tuple[str, RelationSet, str, Token]:
        first = self.current
        left = self.ref()
        rels = self.relset()
        right = self.ref()
        self.expect(";", "';'")
        return left, rels, right, first

    def ref(self) -> str:
        token = self.current
        if token.kind == "STRING" or (token.kind == "IDENT" and token.value not in RESERVED):
            self.advance()
            return token.value
        raise self.fail("expected an activity name or label")

    def relset(self) -> RelationSet:
        self.expect("{", "a relation set")
        if self.current.kind == "}":
            # the empty set, which the printer writes for an inconsistent constraint
            self.advance()
            return RelationSet(0)
        bits = 0
        while True:
            token = self.expect("IDENT", "a relation token")
            try:
                bits |= Relation.from_token(token.value).bit
            except ValueError:
                raise self.fail(f"unknown relation {token.value!r}", token) from None
            if self.current.kind == ",":
                self.advance()
                continue
            break
        self.expect("}", "'}'")
        return RelationSet(bits)

    # --- bookkeeping

    def _note(self, node: Workflow, span: tuple[int, int]) -> Workflow:
        self.spans[id(node)] = span
        return node

    def _label(self, node: Workflow, label: Optional[str], start: Token) -> Workflow:
        if label is None:
            return node
        if node.label is not None:
            raise self.fail(f"node already carries label {node.label!r}", start)
        relabeled = replace(node, label=label)
        self.spans[id(relabeled)] = self.spans.get(id(node), (start.line, start.col))
        return relabeled


def parse(text: str) -> ParsedDocument:
    """Parse a source document into a validated extended workflow.

    Raises ParseError with located diagnostics on lexical or syntactic
    errors, on unknown or ambiguous constraint references, and on
    validation violations (duplicate labels, loop-boundary constraints).
    """
    parser = _Parser(text)
    name, tree, raw_constraints = parser.document()
    node_spans = {path: parser.spans.get(id(node), (1, 1)) for path, node in iter_nodes(tree)}

    diagnostics: list[Diagnostic] = []
    census = key_census(tree)
    variables: dict[str, None] = {}
    for left, _, right, token in raw_constraints:
        for key in (left, right):
            if key in variables:
                continue
            try:
                lookup_key(census, key)
                variables[key] = None
            except KeyResolutionError as exc:
                diagnostics.append(Diagnostic(token.line, token.col, str(exc)))
    if diagnostics:
        raise ParseError(diagnostics)

    network = Qcn.universal(tuple(variables))
    for left, rels, right, _ in raw_constraints:
        network = network.set_constraint(left, right, rels)
    extended = ExtendedWorkflow(tree, network, {key: key for key in variables})

    report = validate(extended)
    if not report.ok:
        span_of = {}
        for left, _, right, token in raw_constraints:
            span_of.setdefault(frozenset((left, right)), (token.line, token.col))
        for violation in report.violations:
            line, col = (1, 1)
            if violation.constraint is not None:
                line, col = span_of.get(frozenset(violation.constraint), (1, 1))
            elif violation.kind == "duplicate-label":
                line, col = node_spans[violation.paths[-1]]
            diagnostics.append(Diagnostic(line, col, violation.message))
        raise ParseError(diagnostics)

    return ParsedDocument(text, name, extended, node_spans)


def parse_extended(text: str) -> ExtendedWorkflow:
    return parse(text).extended


# ---------------------------------------------------------------------------
# Canonical printing


def _quote(name: str) -> str:
    bare = _TOKEN_RE.fullmatch(name)
    if bare and bare.lastgroup == "IDENT" and name not in RESERVED:
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
