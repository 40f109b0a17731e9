"""Independent answer checks for benchmark requests.

Every check works from the generator's own facts (planted answers, atom
constraints, sequence order) and the reference classifier in `allen_ref`.
Answers with no independent reference (unplanted Nebel verdicts and the
`seqfree`/`dot` text) are compared with digests recorded from the program
as first committed, so no later change may alter a verdict or a witness.
The one use of twf itself is the `normalize` round trip, which checks that
the printed form re-parses to the same document: the same workflow line and
the same constraints, up to their order and orientation.  Since that check
compares twf with itself it cannot say which answer is wrong, so a violation
raises PropertyError: the request counts as failed, as when an exception
escapes, but not as a wrong verdict.  Whether the reprint is also the same
text (a fixed point) is measured on its own, as `normalize_fixpoint_ratio`.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen
from allen_ref import CONVERSE, relation

DIGESTS = Path(__file__).with_name("digests.json")



class PropertyError(ValueError):
    """The output lacks a property twf promises; the request failed."""


_ROW = re.compile(r"^    (\S+) \[(\S+), (\S+)\]$")
_PAIR = re.compile(r"^    (\S+) \{(\w+)\} (\S+)$")
_CONSTRAINT = re.compile(r"^    (\S+) \{([\w, ]+)\} (\S+);$")


def request_key(req: gen.Request) -> str:
    blob = "\0".join((req.command, *req.extra, *(d.text for d in req.docs)))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def answer_digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\0{out}".encode()).hexdigest()[:12]


def needs_digest(req: gen.Request) -> bool:
    return req.expect == gen.ANY_VERDICT or req.command in ("seqfree", "dot")


def _schedule(lines: list[str]) -> dict[str, tuple[Fraction, Fraction]]:
    rows = {}
    for line in lines:
        m = _ROW.match(line)
        if not m:
            raise ValueError(f"unreadable schedule row {line!r}")
        lo, hi = Fraction(m[2]), Fraction(m[3])
        if not lo < hi:
            raise ValueError(f"empty interval for {m[1]}")
        rows[m[1]] = (lo, hi)
    return rows


def _check_constraints(doc: gen.Doc, rows) -> None:
    for x, rels, y in doc.constraints:
        if x in rows and y in rows and relation(rows[x], rows[y]) not in rels:
            raise ValueError(f"{x} {relation(rows[x], rows[y])} {y} violates {sorted(rels)}")


def _check_scenario(doc: gen.Doc, out: str) -> None:
    lines = out.splitlines()
    if not lines or lines[0] != "scenario:" or "schedule:" not in lines:
        raise ValueError("no scenario/schedule sections")
    cut = lines.index("schedule:")
    rows = _schedule(lines[cut + 1:])
    names = doc.order or tuple(f"v{i}" for i in range(doc.size))
    needed = set(doc.order) | {a for x, _, y in doc.constraints for a in (x, y)}
    if not needed <= set(rows) <= set(names):
        raise ValueError("schedule misses a constrained activity or names a foreign one")
    names = tuple(rows)
    pairs = 0
    for line in lines[1:cut]:
        m = _PAIR.match(line)
        if not m or relation(rows[m[1]], rows[m[3]]) != m[2]:
            raise ValueError(f"scenario line {line!r} disagrees with the schedule")
        pairs += 1
    if pairs != len(names) * (len(names) - 1) // 2:
        raise ValueError("scenario does not fix every pair")
    _check_constraints(doc, rows)
    for x, y in zip(doc.order, doc.order[1:]):
        if relation(rows[x], rows[y]) not in ("b", "m"):
            raise ValueError(f"chain order broken between {x} and {y}")


def _check_witness(doc: gen.Doc, lines: list[str]) -> None:
    """A bounded witness picks one branch per choice, 1..k loop iterations,
    keeps the top-level parts in sequence and meets every atom constraint."""
    if not lines or lines[0] != "witness schedule:":
        raise ValueError("missing witness schedule")
    rows = _schedule(lines[1:])
    executed = {name.split("#")[0] for name in rows}
    copies = {}
    for name, iv in rows.items():
        copies.setdefault(name.split("#")[0], []).append(iv)
    spans = []
    for kind, names in zip(doc.parts_kind, doc.parts):
        ran = [n for n in names if n in executed]
        if kind in "AC" and len(ran) != len(names):
            raise ValueError(f"part {names} not fully executed")
        if kind == "D" and len(ran) != 1:
            raise ValueError(f"choice {names} executed {len(ran)} branches")
        ivs = [iv for n in ran for iv in copies[n]]
        if kind == "L":
            if not 1 <= len(ivs) <= doc.unroll_bound:
                raise ValueError(f"loop {names} ran {len(ivs)} times")
            ivs.sort()
            if any(a[1] > b[0] for a, b in zip(ivs, ivs[1:])):
                raise ValueError(f"loop {names} iterations overlap")
        spans.append((min(lo for lo, _ in ivs), max(hi for _, hi in ivs)))
    if len(executed) != sum(len(n) for n in doc.parts) - doc.parts_kind.count("D"):
        raise ValueError("witness names activities outside the document")
    for (_, end), (start, _) in zip(spans, spans[1:]):
        if end > start:
            raise ValueError("top-level sequence broken")
    _check_constraints(doc, {n: ivs[0] for n, ivs in copies.items() if len(ivs) == 1})


def _statements(text: str) -> tuple[str, Counter]:
    """A printed document's workflow line and its constraints, each turned
    so its left name sorts first (with the converse relations)."""
    head, _, rest = text.partition("\n")
    body = rest.splitlines()
    if body and (body[0], body[-1]) != ("constraints {", "}"):
        raise PropertyError("unreadable constraints section")
    entries = Counter()
    for line in body[1:-1]:
        m = _CONSTRAINT.match(line)
        if not m:
            raise PropertyError(f"unreadable constraint {line!r}")
        x, rels, y = m[1], frozenset(m[2].split(", ")), m[3]
        if y < x:
            x, rels, y = y, frozenset(CONVERSE[r] for r in rels), x
        entries[x, rels, y] += 1
    return head, entries


def normalize_roundtrip(out: str) -> bool:
    """Re-parse `normalize` output and print it again.

    Raises PropertyError unless the reprint states the same workflow and the
    same constraints; returns whether it is also the same text.
    """
    from twf.dsl import format_document, parse

    doc = parse(out)
    again = format_document(doc.extended, doc.name)
    if _statements(again) != _statements(out):
        raise PropertyError("normalize output re-parses to another document")
    return again == out


class Checker:
    """Checks answers against the generator's facts and the digest table."""

    def __init__(self, record: bool = False):
        self.digests = {} if record else json.loads(DIGESTS.read_text())
        self.record = record
        self.digest_checked = 0
        self.digest_missing = 0

    def check(self, req: gen.Request, code: int, out: str, err: str) -> None:
        """Raise ValueError when the answer is wrong, PropertyError when it
        fails the normalize round trip."""
        if code not in (0, 1, 2):
            raise ValueError(f"exit code {code}")
        self._check_answer(req, code, out, err)
        if needs_digest(req):
            key, value = request_key(req), answer_digest(code, out)
            if self.record:
                self.digests[key] = value
            elif key not in self.digests:
                self.digest_missing += 1
            elif self.digests[key] != value:
                raise ValueError("answer differs from the recorded digest")
            else:
                self.digest_checked += 1

    def _check_answer(self, req: gen.Request, code: int, out: str, err: str) -> None:
        doc = req.docs[0] if req.docs else None
        want_yes = req.expect == gen.YES
        if req.command == "strong-check":
            if (code, out) != (0, "strongly-satisfiable: yes\n") and (
                want_yes or (code, out) != (1, "strongly-satisfiable: no\n")
            ):
                raise ValueError(f"strong-check answered {code} {out!r}")
        elif req.command == "scenario":
            if code == 0:
                _check_scenario(doc, out)
            elif want_yes or (code, out) != (1, "no realizable scenario: the network is inconsistent\n"):
                raise ValueError(f"scenario answered {code} {out[:80]!r}")
        elif req.command == "check":
            self._check_check(req, doc, code, out, err)
        elif req.command == "oracle-verify":
            if code != 0 or not out.endswith("result: ok\n"):
                raise ValueError(f"oracle-verify answered {code} {out[-80:]!r}")
        elif req.command == "subsumes":
            want = (0, "holds\n") if req.expect == gen.HOLDS else (1, "unknown\n")
            if (code, out) != want:
                raise ValueError(f"subsumes answered {code} {out!r}")
        elif code != 0:
            raise ValueError(f"{req.command} exited {code}: {err[-200:]!r}")
        elif req.command == "normalize":
            normalize_roundtrip(out)
        elif req.command == "seqfree":
            head = out.split("\n", 1)[0]
            if not head.startswith(f"workflow {doc.name} = ") or "->" in head:
                raise ValueError("seqfree output still has a sequence")
        elif req.command == "dot":
            if not (out.startswith(f'digraph "{doc.name}" {{') and out.endswith("}\n")):
                raise ValueError("dot output is not a digraph")

    def _check_check(self, req, doc, code, out, err) -> None:
        if req.expect == gen.BUDGET:
            if code != 2 or out or "atom budget" not in err:
                raise ValueError(f"over-budget check answered {code} {err[-120:]!r}")
            return
        head = "satisfiable"
        if "L" in doc.parts_kind:
            head += f" (bounded search, loop bound {doc.unroll_bound})"
        lines = out.splitlines()
        if req.expect == gen.NO:
            if (code, out) != (1, f"{head}: no\n"):
                raise ValueError(f"unsatisfiable check answered {code} {out!r}")
            return
        if code != 0 or not lines or lines[0] != f"{head}: yes":
            raise ValueError(f"satisfiable check answered {code} {out[:80]!r}")
        _check_witness(doc, lines[1:])
